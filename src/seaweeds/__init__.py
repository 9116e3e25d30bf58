"""Seaweed and parabolic subalgebras of sl_n through compositions.

Computes the index of standard seaweed subalgebras from pairs of integer
compositions via meander graphs, generates all Frobenius (index-zero)
instances through a free monoid of index-preserving operator words, and
reproduces the eventual polynomials counting high-part-count Frobenius
instances by exact enumeration and finite-difference fitting.
"""

from .compositions import (
    NULL,
    BiComposition,
    Composition,
    MaybeBiComposition,
    NullElement,
    iter_compositions,
    parse_maybe,
    rho,
    scale,
    theta,
)
from .counting import (
    BudgetExceeded,
    CountTable,
    PolyFit,
    UnstableSequence,
    VerifyReport,
    brute_table,
    deficiency_sequence,
    deficiency_table,
    fit_polynomial,
    generate_deficiency,
    generate_deficiency_p,
    generate_frobenius,
    generate_frobenius_p,
    generated_table,
    poly_str,
    verify_published_polynomials,
)
from .meander import (
    ComponentCensus,
    MeanderGraph,
    build_meander,
    census,
    index_parabolic,
    index_seaweed,
    is_frobenius,
    render,
)
from .parabolic_words import (
    IOTA_P,
    SEED_EVEN,
    SEED_ODD,
    AmbiguousInverse,
    FirstLastEqual,
    ParabolicLetter,
    ParabolicWord,
    apply_letter_p,
    evaluate_p,
    factorize_p,
    reduce_once_p,
    w_sequence_p,
)
from .seaweed_words import (
    IOTA,
    SEED,
    CollisionError,
    FirstPartsEqual,
    NullEncountered,
    SeaweedLetter,
    SeaweedWord,
    WordStats,
    WSequence,
    apply_letter,
    bar_conjugate,
    delta_decompose,
    evaluate,
    factorize,
    reduce_once,
    w_sequence,
    word_stats,
    zeta,
)

__version__ = "0.1.0"
