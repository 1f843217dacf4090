"""Multi-user MIMO TDD downlink simulation: reciprocal pilot training,
LMMSE estimation, pseudo-inverse pre-conditioning, norm-based scheduling,
waterfilling power optimization and the resulting rate lower bounds."""

from .channel_model import RngStream, SystemConfig, db_to_linear, draw_channel, linear_to_db
from .errors import ExcessSingularDrawsError, InfeasibleError, SingularChannelError
from .moments import (MomentCache, MomentEstimate, MomentKey, eta_moments,
                      phi_f_moments, weighted_phi_stats)
from .pilots import EstimatedChannel, build_pilots, lmmse_estimate, simulate_reverse_pilots
from .power_opt import PowerAllocation, alpha_beta, j_objective, waterfill
from .precoding import (PrecodingMatrix, chi_of, modified_precoder, pinv_precoder,
                        simulate_forward)
from .rates import (MomentSource, RatePoint, c_ind_lb, c_ind_lb_scheduled,
                    c_net, c_sum_lb, c_wt_lb, c_wt_net)
from .scheduling import Selection, select_top_norm, select_weighted_order

__version__ = "0.1.0"

__all__ = [
    "RngStream", "SystemConfig", "db_to_linear", "linear_to_db", "draw_channel",
    "ExcessSingularDrawsError", "InfeasibleError", "SingularChannelError",
    "MomentCache", "MomentEstimate", "MomentKey", "eta_moments",
    "phi_f_moments", "weighted_phi_stats",
    "EstimatedChannel", "build_pilots", "lmmse_estimate", "simulate_reverse_pilots",
    "PowerAllocation", "alpha_beta", "j_objective", "waterfill",
    "PrecodingMatrix", "chi_of", "modified_precoder", "pinv_precoder",
    "simulate_forward",
    "MomentSource", "RatePoint", "c_ind_lb", "c_ind_lb_scheduled",
    "c_net", "c_sum_lb", "c_wt_lb", "c_wt_net",
    "Selection", "select_top_norm", "select_weighted_order",
    "__version__",
]
