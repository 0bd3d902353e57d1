"""Desk-scale numerical toolkit for one-shot quantum information protocols."""

from .registers import (DensityOperator, PureState, RegisterSystem,
                        apply_unitary, basis_state, canonical_purification,
                        fidelity, maximally_entangled, maximally_mixed,
                        partial_trace, permute_registers, purified_distance,
                        random_density, tensor)
from .entropy import (EntropyValue, check_mixture_identity, dh_eps, dmax,
                      hmin, imax, relative_entropy, transpose_unitary)
from .convexsplit import (ConvexSplitReport, PairwiseFamily, PrimeRegister,
                          classical_marginal_check, convex_split_1design,
                          convex_split_classical, next_prime_in,
                          one_design_average, pairwise_family, prime_register,
                          u_ell)
from .circuits import (CircuitMetrics, Gate, ReversibleCircuit, metrics,
                       simulate_table, synth_decoupler, synth_swap)
from .flatten import (EmbezzleState, FlatSpectrum, check_embezzle_upper,
                      check_unembezzle, convex_split_flat_1design,
                      convex_split_flat_classical, embezzling_state,
                      harmonic_sum, purified_embezzle_fidelity,
                      round_spectrum, unitary_flatten_W, w_b_permutation)
from .coding import (CodingReport, PositionDecodeReport, QuantumChannel,
                     RedistributionBounds, apply_channel, channel_rate_cap,
                     depolarizing_channel, ea_channel_code,
                     entanglement_budget, identity_channel,
                     neyman_pearson_operator, position_based_decode_classical,
                     position_based_decode_flat, redistribution_bounds)
