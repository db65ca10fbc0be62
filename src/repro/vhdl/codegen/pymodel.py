"""Loading and compiling generated Python models.

A compiled unit's ``py_source`` defines ``elaborate(ctx)``.  The
source is compiled with Python's own byte-compiler — our stand-in for
the host C compiler of the paper's pipeline (the E4 bench measures
this phase's share of compile time the way the paper measured the
20–30% cc share).
"""


def compile_model(py_source, unit_name="<model>"):
    """Byte-compile a generated model; returns the code object."""
    return compile(py_source, "<vhdl model %s>" % unit_name, "exec")


def load_model(code, extra_globals=None):
    """Execute a byte-compiled model (:func:`compile_model`); returns
    its namespace.

    ``extra_globals`` supplies the namespaces of packages this unit
    depends on (their exported constants, functions, and signals).
    """
    namespace = {}
    if extra_globals:
        namespace.update(extra_globals)
    exec(code, namespace)
    return namespace
