import pytest

from hotplug import config as cfg_mod
from hotplug.errors import ConfigError


def _leaf_keys(section, path=()):
    for key, value in section.items():
        if isinstance(value, dict):
            yield from _leaf_keys(value, (*path, key))
        else:
            yield (*path, key)


LEAF_KEYS = list(_leaf_keys(cfg_mod.DEFAULT_CONFIG))


def _build_every_section(config):
    cfg_mod.image_spec_from(config)
    cfg_mod.data_settings_from(config)
    cfg_mod.eval_settings_from(config)
    cfg_mod.taca_config_from(config)
    cfg_mod.loss_config_from(config)
    for role in ("old", "new"):
        cfg_mod.visual_config_from(config, role)
        cfg_mod.text_config_from(config, role)
    for role in ("old", "new", "taca"):
        cfg_mod.train_config_from(config, role)


@pytest.mark.parametrize("key", LEAF_KEYS, ids=".".join)
def test_no_config_key_escapes_the_builders(key):
    """A key whose value no builder reads would be silently ignored: each leaf
    set to a string must make some builder raise ``ConfigError``. This cannot
    see a key that a builder validates but no run then uses."""
    *sections, leaf = key
    overrides = node = {}
    for section in sections:
        node = node.setdefault(section, {})
    node[leaf] = "poison"
    with pytest.raises(ConfigError):
        _build_every_section(cfg_mod.resolve_config(overrides))


@pytest.mark.parametrize("role, steps, seed", [("old", 400, 0), ("new", 600, 1000),
                                               ("taca", 1500, 0)])
def test_train_config_per_role(role, steps, seed):
    train = cfg_mod.train_config_from(cfg_mod.resolve_config(), role)
    assert (train.steps, train.seed, train.learning_rate) == (steps, seed, 1e-3)


def test_taca_learning_rate_is_the_attachments_only():
    config = cfg_mod.resolve_config({"train": {"taca_learning_rate": 5e-4}})
    assert cfg_mod.train_config_from(config, "taca").learning_rate == 5e-4
    assert cfg_mod.train_config_from(config, "new").learning_rate == 1e-3


def test_unknown_role():
    with pytest.raises(ConfigError, match="'taca'"):
        cfg_mod.train_config_from(cfg_mod.resolve_config(), "cold")
