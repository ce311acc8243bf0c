"""Learning nodal injection distributions and generating fast-timescale
injections from slow smart-meter history."""

from .gmm import GmmModel, fit_gmm
from .mlp import MlpModel, TrainReport, TrainingError, init_model, loss_and_grads, train_mlp
from .pipeline import (InjectionModel, TrainingSet, build_training_set,
                       fit_error_gmm, fit_injection_gmms, generated_measurements,
                       infer_injections, injection_components,
                       prior_measurements, pseudo_measurements,
                       sample_injections, sanitize_scada, scada_channels,
                       scada_vector, train_injection_model)
from .profiles import (LoadProfiles, ProfileParams, daily_shape,
                       default_solar_caps, gen_load_profiles, solar_shape)

__all__ = [
    "GmmModel", "InjectionModel", "LoadProfiles", "MlpModel", "ProfileParams",
    "TrainReport", "TrainingError", "TrainingSet", "build_training_set",
    "daily_shape", "default_solar_caps", "fit_error_gmm", "fit_gmm",
    "fit_injection_gmms", "gen_load_profiles", "generated_measurements",
    "infer_injections", "init_model",
    "injection_components", "loss_and_grads",
    "prior_measurements", "pseudo_measurements", "sample_injections", "sanitize_scada",
    "scada_channels", "scada_vector", "solar_shape", "train_injection_model",
    "train_mlp",
]
