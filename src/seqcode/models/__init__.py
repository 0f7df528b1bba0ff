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
    subtraction_counterexample,
)
from seqcode.models.polynat import PolyNat
from seqcode.models.qext import A0, A1, QElem, qext_swap, std

__all__ = [
    "A0",
    "A1",
    "AUTOMORPHISM",
    "Axiom",
    "AxiomReport",
    "CORE_AXIOMS",
    "DERIVED_LAWS",
    "MODELS",
    "Model",
    "NAT",
    "POLYNAT",
    "PolyNat",
    "QElem",
    "QEXT",
    "Q_AXIOMS",
    "REGISTRY",
    "SUBTRACTION",
    "SampleBudget",
    "UnknownAxiom",
    "check_axiom",
    "qext_swap",
    "run_axiom",
    "std",
    "subtraction_counterexample",
]
