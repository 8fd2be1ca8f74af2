"""Biquandle counting invariants and biquandle bracket invariants of
oriented knots and links, with trace-diagram evaluation, adequacy
classification, and bracket search over small modular rings."""
from importlib import resources

from .biquandle import (Biquandle, alexander_biquandle, parse_biquandle,
                        serialize_biquandle, trivial_biquandle, verify_biquandle)
from .bracket import (AdequacyClass, BiquandleBracket, InvariantResult,
                      bracket_invariant, classify_adequacy, constant_bracket,
                      generic_laurent_bracket, homflypt_coefficients,
                      make_bracket, parse_bracket, serialize_bracket,
                      state_sum, verify_bracket)
from .coloring import (counting_invariant, enumerate_colorings,
                       monochromatic_riii_check, validate_coloring)
from .diagram import (Crossing, OrientedDiagram, count_state_loops, hopf_pos,
                      oriented_smoothing, parse_diagram, serialize_diagram,
                      switch_crossing, trefoil_pos, trefoil_rii, unknot0,
                      unknot_kink, validate_diagram, writhe_counts)
from .rings import (LaurentElement, LaurentRing, ModElement, ModRing,
                    NotAUnitError, RingMismatchError)
from .search import bracket_key, brute_force_brackets, search_brackets
from .trace import (MultiComponentCrossingError, NotRIReducibleError,
                    TraceDiagram, all_moves, diagrammatic_adequacy,
                    diagrammatic_passthrough, evaluate_by_parity,
                    evaluate_recursive, evaluate_recursive_parity,
                    from_colored_diagram,
                    magnetic_parity, parse_trace_diagram, ri_reducible,
                    skein_identity_check, trace_move_fixture_check)

__version__ = "0.1.0"


def fixture_path(name: str) -> str:
    """Filesystem path of a bundled fixture file."""
    return str(resources.files("tracebracket").joinpath("fixtures", name))


def fixture_text(name: str) -> str:
    return resources.files("tracebracket").joinpath("fixtures", name).read_text()
