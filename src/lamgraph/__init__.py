"""Term graph representations of cyclic lambda-terms with letrec.

Three interchangeable representations: term graphs with an explicit
scope function, with an abstraction-prefix function, and first-order
graphs using scope-delimiter vertices.  Translations between them
preserve and reflect the sharing order, which makes maximal subterm
sharing computable by first-order bisimulation collapse.

Names are resolved on first access (PEP 562): ``import lamgraph`` loads
no submodule, and ``lamgraph.collapse`` imports ``lamgraph.sharing`` the
first time it is read.  ``from lamgraph import *`` and ``vars(lamgraph)``
import them all.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

# Each public name and the submodule that defines it.
_EXPORTS = {
    name: home
    for home, names in {
        "core": """ArityMismatch DanglingSuccessor DomainMismatch ForbiddenLabel GraphError
            IndexOutOfRange Label Path SignatureVariant TermGraph UnreachableVertex
            VariantMismatch VertexMap access_path build build_pruned isomorphic successor""",
        "delimited": """DelimitedGraph infer_prefix is_eager_scope is_fully_back_linked
            is_lambda_term_graph validate_prefix_fo""",
        "scoped": """PrefixedGraph ScopedGraph ValidationReport Violation binders
            validate_prefix_ho validate_scope""",
        "sharing": """NotEagerScope Partition are_bisimilar coarsest_partition collapse
            find_homomorphism is_label_restricted lift_homomorphism max_share max_share_ho""",
        "terms": """Abs App DuplicateBinding Letrec Term TermSyntaxError UnboundVariable Var
            format_term parse_term""",
        "textfmt": "FormatError GraphDocument parse_graph serialize_graph",
        "dot": "to_dot",
        "transforms": """forget insert_delimiters num_delimiters prefix_to_scope
            scope_to_prefix strip_delimiters""",
        "translate": "DegenerateBinding InternalValidationFailure term_to_graph",
    }.items()
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # Called only for a name not yet in the module's globals; the value
    # is stored there, so every later read is a plain attribute read.
    home = _EXPORTS.get(name)
    if home is not None:
        value = getattr(_import_module(f"{__name__}.{home}"), name)
    elif name in _EXPORTS.values():  # a submodule, such as lamgraph.sharing
        value = _import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


class _Package(_ModuleType):
    """The package's module type.  Only attribute reads are lazy: reading
    the whole namespace (``vars(lamgraph)``, ``lamgraph.__dict__``)
    resolves every public name first, so it holds what an eager package
    would hold."""

    @property
    def __dict__(self):
        for name in __all__:
            getattr(self, name)
        return globals()

    def __dir__(self):
        return sorted({*globals(), *__all__})


_sys.modules[__name__].__class__ = _Package
