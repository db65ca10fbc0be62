"""Token-stream source fingerprints and VIF interface digests."""

from repro.build.fingerprint import (
    interface_digest,
    raw_fingerprint,
    source_fingerprint,
    tokens_fingerprint,
)
from repro.vhdl.compiler import Compiler
from repro.vhdl.lexer import scan

ENTITY = """
entity e is
  port ( a : in bit; b : out bit );
end e;
"""


class TestSourceFingerprint:
    def test_stable(self):
        assert source_fingerprint(ENTITY) == source_fingerprint(ENTITY)

    def test_whitespace_insensitive(self):
        reflowed = ENTITY.replace("\n", "\n\n").replace("  ", "\t ")
        assert source_fingerprint(reflowed) == source_fingerprint(ENTITY)

    def test_comment_insensitive(self):
        commented = "-- a header comment\n" + ENTITY.replace(
            "end e;", "end e;  -- trailing")
        assert source_fingerprint(commented) == source_fingerprint(ENTITY)

    def test_identifier_case_insensitive(self):
        """VHDL identifiers are case-insensitive; so is the hash."""
        shouted = ENTITY.replace("entity e", "ENTITY E")
        assert source_fingerprint(shouted) == source_fingerprint(ENTITY)

    def test_token_change_changes_hash(self):
        changed = ENTITY.replace("out bit", "in bit")
        assert source_fingerprint(changed) != source_fingerprint(ENTITY)

    def test_string_case_is_significant(self):
        a = 'entity e is end e; -- x\n'
        # identical apart from a *string literal* (case-sensitive)
        s1 = a + 'architecture r of e is begin assert false report "A"; end r;'
        s2 = a + 'architecture r of e is begin assert false report "a"; end r;'
        assert source_fingerprint(s1) != source_fingerprint(s2)

    def test_unscannable_falls_back_to_raw(self):
        broken = "entity ! @ $ %"
        # must not raise, and must be stable
        assert source_fingerprint(broken) == source_fingerprint(broken)

    def test_raw_and_token_salts_differ(self):
        text = "entity e is end e;"
        assert raw_fingerprint(text) != source_fingerprint(text)

    def test_tokens_fingerprint_matches_source(self):
        assert tokens_fingerprint(scan(ENTITY)) == \
            source_fingerprint(ENTITY)


class TestInterfaceDigest:
    def _payload(self, source, key):
        c = Compiler()
        res = c.compile(source)
        assert res.ok, res.messages
        return c.library.payload_of("work", key)

    def test_stable_across_compiles(self):
        p1 = self._payload(ENTITY, "e")
        p2 = self._payload(ENTITY, "e")
        assert interface_digest(p1) == interface_digest(p2)

    def test_port_change_changes_digest(self):
        p1 = self._payload(ENTITY, "e")
        p2 = self._payload(ENTITY.replace(
            "b : out bit", "b : out bit; c : out bit"), "e")
        assert interface_digest(p1) != interface_digest(p2)

    def test_volatile_fields_ignored(self):
        """Generated code and line numbers do not shift the digest."""
        p1 = self._payload(ENTITY, "e")
        p2 = self._payload("\n\n\n\n" + ENTITY, "e")  # lines shift
        assert interface_digest(p1) != ""
        assert interface_digest(p1) == interface_digest(p2)

    def test_constant_value_is_interface(self):
        """A used package constant's *value* can be folded into
        dependents, so it is part of the interface."""
        p1 = self._payload(
            "package p is constant k : integer := 1; end p;", "p")
        p2 = self._payload(
            "package p is constant k : integer := 2; end p;", "p")
        assert interface_digest(p1) != interface_digest(p2)
