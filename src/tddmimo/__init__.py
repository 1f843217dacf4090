"""Multi-user MIMO TDD downlink simulation: reciprocal pilot training,
LMMSE estimation, pseudo-inverse pre-conditioning, norm-based scheduling,
waterfilling power optimization and the resulting rate lower bounds."""

from .channel_model import RngStream, SystemConfig, db_to_linear, draw_channel, linear_to_db
from .errors import ExcessSingularDrawsError, SingularChannelError
from .moments import (MomentCache, MomentEstimate, MomentKey, eta_moments,
                      phi_f_moments, weighted_phi_stats)
from .pilots import EstimatedChannel, build_pilots, lmmse_estimate, simulate_reverse_pilots
from .power_opt import PowerAllocation, alpha_beta, j_objective, waterfill
from .precoding import chi_of, modified_precoder, pinv_precoder, simulate_forward
from .rates import (MomentSource, RatePoint, c_ind_lb, c_ind_lb_scheduled,
                    c_net, c_sum_lb, c_wt_lb, c_wt_net)

__version__ = "0.1.0"

__all__ = [
    "RngStream", "SystemConfig", "db_to_linear", "linear_to_db", "draw_channel",
    "ExcessSingularDrawsError", "SingularChannelError",
    "MomentCache", "MomentEstimate", "MomentKey", "eta_moments",
    "phi_f_moments", "weighted_phi_stats",
    "EstimatedChannel", "build_pilots", "lmmse_estimate", "simulate_reverse_pilots",
    "PowerAllocation", "alpha_beta", "j_objective", "waterfill",
    "chi_of", "modified_precoder", "pinv_precoder", "simulate_forward",
    "MomentSource", "RatePoint", "c_ind_lb", "c_ind_lb_scheduled",
    "c_net", "c_sum_lb", "c_wt_lb", "c_wt_net",
    "__version__",
]
