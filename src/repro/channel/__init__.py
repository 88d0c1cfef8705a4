"""Propagation substrate: noise, path loss, fading and Doppler.

The paper's evaluation runs over an indoor office deployment; this package
provides the synthetic equivalents — a log-distance indoor path-loss model
with wall losses, a temporal fading process matching the measured +/-5 dB
SNR variance (Fig. 9), and the Doppler bin shift of a moving tag. The
Saleh-Valenzuela delay-spread model lives with the waveform-level test
oracle (``tests/waveform_oracle.py``).
"""

from repro.channel.awgn import awgn, noise_power_dbm
from repro.channel.deployment import Deployment, DeployedDevice, generate_office_deployment
from repro.channel.fading import FadingProcess
from repro.channel.link import LinkBudget
from repro.channel.offsets import doppler_bin_shift
from repro.channel.pathloss import indoor_path_loss_db, free_space_path_loss_db

__all__ = [
    "awgn",
    "noise_power_dbm",
    "Deployment",
    "DeployedDevice",
    "generate_office_deployment",
    "FadingProcess",
    "LinkBudget",
    "doppler_bin_shift",
    "indoor_path_loss_db",
    "free_space_path_loss_db",
]
