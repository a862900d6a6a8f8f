"""Discovery of ontology-aware functional dependencies.

Dependencies of the form ``X -> A`` where tuples equal on ``X`` must carry
consequent values related through a domain ontology: either sharing a sense
(synonym dependencies) or a common is-a ancestor within a bounded distance
(inheritance dependencies).  The package loads CSV tables and JSON
ontologies, verifies individual candidates exactly or approximately, and
searches the attribute lattice for the complete minimal dependency set.
"""
from .inference import Closure, OfdSet, closure, implies, minimal_cover, ofd_set
from .lattice import DiscoveryConfig, DiscoveryResult, LevelStats, discover
from .ontology import Ontology, OntologyError, load_ontology
from .relation import (
    AttrSet,
    Partition,
    Relation,
    RelationError,
    attr_set,
    load_relation,
    partition,
    relation_from_rows,
    strip,
)
from .verify import (
    Inheritance,
    Ofd,
    OfdKind,
    SupportOutcome,
    Synonym,
    VerifyOutcome,
    support_inheritance,
    support_synonym,
    verify_inheritance,
    verify_synonym,
)

__all__ = [
    "AttrSet",
    "Closure",
    "DiscoveryConfig",
    "DiscoveryResult",
    "Inheritance",
    "LevelStats",
    "Ofd",
    "OfdKind",
    "OfdSet",
    "Ontology",
    "OntologyError",
    "Partition",
    "Relation",
    "RelationError",
    "SupportOutcome",
    "Synonym",
    "VerifyOutcome",
    "attr_set",
    "closure",
    "discover",
    "implies",
    "load_ontology",
    "load_relation",
    "minimal_cover",
    "ofd_set",
    "partition",
    "relation_from_rows",
    "strip",
    "support_inheritance",
    "support_synonym",
    "verify_inheritance",
    "verify_synonym",
]

__version__ = "0.1.0"
