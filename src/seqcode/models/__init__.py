"""Three concrete semiring models and the axiom-checking engine."""

from seqcode.models.axioms import (
    AUTOMORPHISM,
    Axiom,
    CORE_AXIOMS,
    DERIVED_LAWS,
    Q_AXIOMS,
    REGISTRY,
    SUBTRACTION,
)
from seqcode.models.checker import (
    MODELS,
    NAT,
    POLYNAT,
    QEXT,
    AxiomReport,
    Model,
    SampleBudget,
    UnknownAxiom,
    check_axiom,
    run_axiom,
)
from seqcode.models.qext import A0, A1, qext_swap
