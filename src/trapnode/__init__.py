"""trapnode: desk-scale model of a camera-trap pest-detection sensor node.

Three layers of the stack are covered: a complete Viola-Jones detector with
scratchpad-budgeted tiling (imaging, integral, cascade, detector, trainer,
evaluator), an analytical model of a heterogeneous MCU running CNN inference
(mcu, cnngraph, sched), and a duty-cycle energy/lifetime model (power).
"""

__version__ = "0.1.0"

from .imaging import GrayImage, load_pgm, save_pgm, sensor_degrade, downscale
from .integral import IntegralImage, Rect, build_integral, rect_sum
from .cascade import (Cascade, HaarFeature, Stage, WeakClassifier,
                      eval_window, feature_value, load_cascade, save_cascade)
from .detector import (Detection, PyramidConfig, ScratchBudget, TileSpec,
                       build_pyramid, detect, plan_tiles, scan_tile)
from .trainer import (TrainConfig, enumerate_features, feature_table,
                      train_cascade)
from .evaluator import EvalReport, iou, match_detections
from .mcu import (ComputeEngine, MemoryTier, PlatformModel, builtin_platform,
                  transfer_cycles)
from .cnngraph import (SHIPPED_GRAPH, Layer, LayerGraph, count_macs,
                       count_macs_total, count_params_total, dws_savings,
                       load_graph)
from .sched import (BudgetConfig, LatencyReport, Schedule, compare_budgets,
                    estimate_latency, plan_schedule)
from .power import (Battery, DutyCycleConfig, EnergyLedger, PhaseEnergy,
                    daily_energy, lifetime, simulate, wake_cycle_energy)
