"""SSA-based differentiable programming kit: IR, transforms, runtimes."""

from .forward_ad import Dual, dual_eval, fused_map_pullback, fused_map_with_partials
from .interp import EvalError, Machine, eval_function
from .ir import F64, I64, BOOL, Diagnostic, Function, Module, Type, print_ir
from .nn_train import DANConfig, MetricsHistory, dan_step, train
from .oracle import finite_diff, tape_backprop, trace_eval, trace_grad
from .ops import OpTypeError
from .parser import ParseError, parse_ir
from .progen import GenError, generate_suite, random_program, sample_inputs, stable_inputs
from .reverse_ad import ADError, augment, build_grad_function, grad, grad_of_grad
from .spmd_batch import BatchError, batched_grad, stack_lanes, unstack_lanes, vectorize
from .structure import SEmitter, SIf, SWhile, StructureError, flatten, structurize, verify
from .tensor import DenseTensor

__version__ = "0.1.0"

__all__ = [
    "ADError", "BOOL", "BatchError", "DANConfig", "DenseTensor", "Diagnostic",
    "Dual", "EvalError", "F64", "Function", "GenError", "I64", "Machine",
    "MetricsHistory", "Module", "OpTypeError", "ParseError", "SEmitter",
    "SIf", "SWhile", "StructureError", "Type", "augment", "batched_grad",
    "build_grad_function", "dan_step", "dual_eval", "eval_function",
    "finite_diff", "flatten", "fused_map_pullback", "fused_map_with_partials",
    "generate_suite", "grad", "grad_of_grad", "parse_ir", "print_ir",
    "random_program", "sample_inputs", "stable_inputs", "stack_lanes",
    "structurize", "tape_backprop", "trace_eval", "trace_grad", "train",
    "unstack_lanes", "vectorize", "verify",
]
