"""riskprop: exact stochastic orders, insurance contracts, and risk-attitude certification.

Everything runs on finite equiprobable state spaces with exact rational
arithmetic.  The library covers:

* payoffs, lotteries, quantile tables, dyadic conditioning (``space``);
* concave order, first-order dominance, spread recognition,
  counter-monotonicity, the better-hedge relation (``orders``);
* zero-mean splits, spread chains, and the factorization of single
  spreads through proportional or deductible-limit purchases
  (``decompose``);
* contract construction, five-class classification, premium principles
  (``insurance``);
* expected utility, the dual model, mean-variance, expected value, with
  exact certainty equivalents and compensation amounts (``preferences``);
* budgeted search certificates for the absolute, neutral, comparative,
  and priced variants of risk attitudes (``certify``).
"""

from .space import (
    Payoff,
    Lottery,
    QuantileTable,
    as_fraction,
    dyadic_condition,
    equal_in_distribution,
    expectation,
    variance,
)
from .orders import (
    MpsStep,
    better_hedge,
    concave_order,
    counter_monotone,
    fsd,
    is_best_hedge,
    recognize_mps,
    stop_loss,
)
from .decompose import (
    InsuranceTriple,
    MpsChain,
    Rearrangement,
    ZeroMeanSplit,
    deductible_triple,
    mps_chain,
    proportional_triple,
    split_zero_mean,
)
from .insurance import (
    InsuranceContract,
    InsuranceKind,
    PremiumPrinciple,
    classify,
    classify_detailed,
    fair_principle,
    is_member,
    loading_principle,
    make_contract,
    premium,
)
from .preferences import (
    Comparison,
    PiecewiseLinearFn,
    PreferenceModel,
    certainty_equivalent,
    dual_model,
    dual_value,
    eu_value,
    expected_utility_model,
    expected_value_model,
    mean_variance_model,
    mv_compare,
    rho,
)
from .certify import (
    CertificateReport,
    SearchBudget,
    Witness,
    check_neutrality,
    check_premium_propensity,
    check_propensity,
    check_strong_risk_aversion,
    check_weak_risk_aversion,
    compare_propensity,
    compare_strong,
    compare_weak,
    replay_witness,
)

__version__ = "0.1.0"
