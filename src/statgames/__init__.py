"""Compositional approximate inference with copy-composite channels,
Bayesian lenses, and numerically certified loss models."""

from .discrete import (
    CoparKernel,
    Dist,
    Effect,
    FiniteKernel,
    FiniteSpace,
    bayes_invert,
    compose,
    copy_compose,
    copy_compose_copar,
    discard_coparam,
    effect_add,
    effect_precompose,
    almost_sure_eq,
    push,
    tensor,
)
from .errors import (
    CompositionError,
    InstanceError,
    ModelParseError,
    ShapeError,
    SingularityError,
    SupportError,
)
from .gaussian import (
    GaussChannel,
    GaussState,
    g_copy_compose,
    g_entropy,
    g_invert,
    g_kl,
    g_logpdf,
    g_push,
)
from .games import Game, TwoCellWitness, game_hcompose, game_vcompose, section_check
from .harness import SuiteConfig, SuiteReport, run_suite
from .lens import (
    BayesLens,
    buco_residual,
    exact_lens,
    lens_compose,
    lens_tensor,
    reindex,
)
from .loss import (
    LossFn,
    LossModel,
    energy_entropy_decomp,
    fe_joint_form,
    fe_loss,
    kl_loss,
    laplace_sigma,
    laxator,
    laxator_loss,
    lfe_loss,
    loss_compose,
    mle_loss,
)

__version__ = "0.1.0"
