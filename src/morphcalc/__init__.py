"""morphcalc: exact calculator for the quantity polynomials of classical manifolds."""

from .quantity import (
    Classification,
    MorphError,
    MorphPoly,
    NonZeroRemainder,
    SemiIntegralForm,
    SizeLimitExceeded,
    classify,
    dimension,
    div_exact,
    euler,
    evaluate_at,
    render,
    semi_integral_minimal,
)
from .stability import (
    CellComplex,
    NormalForm,
    rewrite_reachable,
    stable_normal_form,
)
from .catalog import (
    catalog_entry,
    catalog_quantity,
    gaussian_binomial,
    registry_table,
    schubert_cells,
)
from .factorize import (
    FactorizationResult,
    factor_into_catalog,
    grassmann_divide,
    periodicity_scan,
)
from .lang import eval_expr, parse, print_expr
from .corpus import (
    IdentityRecord,
    VerifyReport,
    bivector_audit,
    hopf_family,
    load_corpus,
    sphere_addition,
    verify_corpus,
)

__version__ = "0.1.0"


def corpus_path():
    """Filesystem path of the identity corpus shipped with the package."""
    from importlib import resources  # it loads pathlib and tempfile; only this path pays

    return resources.files(__name__).joinpath("data/identities.morph")
