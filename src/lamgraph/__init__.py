"""Term graph representations of cyclic lambda-terms with letrec.

Three interchangeable representations: term graphs with an explicit
scope function, with an abstraction-prefix function, and first-order
graphs using scope-delimiter vertices.  Translations between them
preserve and reflect the sharing order, which makes maximal subterm
sharing computable by first-order bisimulation collapse.
"""

from .core import (
    ArityMismatch,
    DanglingSuccessor,
    DomainMismatch,
    ForbiddenLabel,
    GraphError,
    IndexOutOfRange,
    Label,
    Path,
    SignatureVariant,
    TermGraph,
    UnreachableVertex,
    VariantMismatch,
    VertexMap,
    access_path,
    build,
    build_pruned,
    isomorphic,
    successor,
)
from .delimited import (
    DelimitedGraph,
    infer_prefix,
    is_eager_scope,
    is_fully_back_linked,
    is_lambda_term_graph,
    validate_prefix_fo,
)
from .scoped import (
    PrefixedGraph,
    ScopedGraph,
    ValidationReport,
    Violation,
    binders,
    validate_prefix_ho,
    validate_scope,
)
from .sharing import (
    NotEagerScope,
    Partition,
    are_bisimilar,
    coarsest_partition,
    collapse,
    find_homomorphism,
    is_label_restricted,
    lift_homomorphism,
    max_share,
    max_share_ho,
)
from .terms import (
    Abs,
    App,
    DuplicateBinding,
    Letrec,
    Term,
    TermSyntaxError,
    UnboundVariable,
    Var,
    format_term,
    parse_term,
)
from .textfmt import FormatError, GraphDocument, parse_graph, serialize_graph
from .dot import to_dot
from .transforms import (
    forget,
    insert_delimiters,
    num_delimiters,
    prefix_to_scope,
    scope_to_prefix,
    strip_delimiters,
)
from .translate import DegenerateBinding, InternalValidationFailure, term_to_graph

__all__ = [name for name in dir() if not name.startswith("_")]
