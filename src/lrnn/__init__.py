"""Lifted relational rule templates compiled to trainable neural networks.

A non-recursive template of weighted definite clauses is grounded
against each example's facts (least Herbrand model, one stratified
bottom-up pass), the active ground rules become an example-specific
feedforward network, and the clause weights shared across all examples
are learned by online SGD.
"""

from .activations import (AVG_SIGMOID, FAMILIES, GODEL, MAX_SIGMOID, eval_agg, eval_conj,
                          eval_disj, sigmoid)
from .errors import (AllRestartsFailedError, CapacityError, DivergenceError,
                     EmptyInputError, LrnnError, ParseError, RecursiveTemplateError)
from .grounding import DEFAULT_CAPACITY, Grounding, ground, least_herbrand_model
from .logic import (Atom, Constant, Example, ParameterStore, QueryRow, Template,
                    Variable, WeightedClause, check_nonrecursive, make_template,
                    parse_examples, parse_params, parse_queries, parse_template,
                    render_clause, render_examples, render_params, render_template)
from .network import GroundNetwork, Neuron, ValueMap, backward, build, census, export_dot, forward
from .training import (CompiledTask, TrainConfig, TrainingTask, TrainReport, compile_networks,
                       cost, crossvalidate, derive_seed, make_folds, sgd_epoch, train,
                       zero_one_error)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
