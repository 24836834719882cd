import pytest

from fertisim.config import default_config


@pytest.fixture(scope="session")
def cfg():
    return default_config()


@pytest.fixture(scope="session")
def camera(cfg):
    return cfg.camera()


@pytest.fixture(scope="session")
def growth_params(cfg):
    return cfg.growth_params()


@pytest.fixture(scope="session")
def schedule(cfg):
    """The monitor's sampling cadence and the default timer."""
    return cfg.schedule()


@pytest.fixture(scope="session")
def no_demand(cfg):
    """The default demand window with no turgor loss."""
    return cfg.demand("growth_exp.peak_loss_rate")
