"""Cylinders in singular del Pezzo surfaces: classification and certificates.

Exact-arithmetic tooling for du Val del Pezzo surface specs: cylinder
existence classification and re-checkable non-log-canonical certificates
("tigers") with exhaustive decomposition obstructions.

The top level exports the product path, parse -> classify -> build_tiger ->
document.  ``import dpcylinders`` loads the first half, ``lattice``, which
holds the specs and their verdicts, and ``specio``: a spec file is read,
classified and its verdict written without the certificate path.  The
certificate names, ``build_tiger`` and the rest from ``tigers``, and the
certificate documents and ``--trace`` lines (``narrate``) of ``certificate``,
load their module when first read.
Everything else is imported from its own module and is not loaded by
``import dpcylinders``.
"""

from .lattice import DynkinType, InvalidSpec, SurfaceSpec, Verdict, classify, enumerate_specs
from .specio import SpecFileError, parse_spec_text, render_document, verdict_document

__version__ = "0.1.0"

# Each lazy name and its module, in the order ``__all__`` lists them.  Read
# through ``__getattr__``, which imports the name's module on first use.  A
# lazy name must not be the name of a submodule: once the submodule is
# imported, the import system binds it on the package, and ``__getattr__``
# is never asked.
_LAZY_NAMES = dict(
    NoCaseApplies="tigers", TigerCertificate="tigers", build_tiger="tigers",
    case_tables="tigers", enumerate_decompositions="tigers", narrate="certificate",
    select_case="tigers", certificate_chunks="certificate",
    certificate_document="certificate",
)


def __getattr__(name: str) -> object:
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own route, which ``python3 -X importtime``
    # times; ``importlib.import_module`` goes round it, and a module loaded
    # that way shows no line there
    module = __import__(f"{__name__}.{_LAZY_NAMES[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value


__all__ = [
    "DynkinType",
    "InvalidSpec",
    "SpecFileError",
    "SurfaceSpec",
    "Verdict",
    "classify",
    "enumerate_specs",
    "parse_spec_text",
    "render_document",
    "verdict_document",
    *_LAZY_NAMES,
    "__version__",
]
