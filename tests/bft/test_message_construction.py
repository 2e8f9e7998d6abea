"""Every message class builds the same message however it is called, and its
freeze guard holds on every declared field once the encoding is cached.

A message's ``__init__`` writes the instance ``__dict__`` directly, below the
guard in ``Message.__setattr__``, so both properties are checked over all of
``MESSAGE_TYPES``: an ``__init__`` that dropped, swapped or mis-defaulted a
field, or a guard that let a signed field change, shows here."""

import dataclasses

import pytest

from repro.bft.messages import MESSAGE_TYPES, FrozenMessageError
from tests.bft.test_golden_wire import golden_messages

SAMPLES = {type(message): message for message in golden_messages().values()}
POST_FREEZE = ("auth", "sig")


def test_every_message_type_has_a_sample():
    assert set(SAMPLES) == set(MESSAGE_TYPES.values())
    assert len(SAMPLES) == 29


def _values(cls):
    """(required, defaulted): the sample's required fields, the others at their defaults."""
    required, defaulted = {}, {}
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            defaulted[f.name] = f.default
        elif f.default_factory is not dataclasses.MISSING:
            defaulted[f.name] = f.default_factory()
        else:
            required[f.name] = getattr(SAMPLES[cls], f.name)
    return required, defaulted


@pytest.mark.parametrize("cls", MESSAGE_TYPES.values(), ids=lambda cls: cls.__name__)
def test_keyword_positional_default_and_replace_build_the_same_message(cls):
    sample = SAMPLES[cls]
    required, defaulted = _values(cls)
    values = {**required, **defaulted}
    built = [
        cls(**values),
        cls(*values.values()),
        cls(**required),
        dataclasses.replace(sample, **defaulted),
    ]
    for message in built:
        assert message == built[0]
        assert {name: message.__dict__[name] for name in values} == values
        assert message.signable_bytes() == built[0].signable_bytes()

    every = {f.name: getattr(sample, f.name) for f in dataclasses.fields(cls)}
    for message in (cls(**every), cls(*every.values()), dataclasses.replace(cls(**required), **every)):
        assert message == sample
        assert message.signable_bytes() == sample.signable_bytes()
        assert message.wire_size() == sample.wire_size()


@pytest.mark.parametrize("cls", MESSAGE_TYPES.values(), ids=lambda cls: cls.__name__)
def test_default_factories_give_each_message_its_own_value(cls):
    required, _ = _values(cls)
    first, second = cls(**required), cls(**required)
    for f in dataclasses.fields(cls):
        if f.default_factory is not dataclasses.MISSING:
            assert getattr(first, f.name) is not getattr(second, f.name)


@pytest.mark.parametrize("cls", MESSAGE_TYPES.values(), ids=lambda cls: cls.__name__)
def test_every_signed_field_is_frozen_after_encoding(cls):
    required, defaulted = _values(cls)
    message = cls(**required, **defaulted)
    for name in {**required, **defaulted}:
        setattr(message, name, getattr(message, name))  # before encoding: allowed
    message.signable_bytes()
    for f in dataclasses.fields(cls):
        if f.name in POST_FREEZE:
            continue
        with pytest.raises(FrozenMessageError):
            setattr(message, f.name, getattr(message, f.name))
        with pytest.raises(FrozenMessageError):
            delattr(message, f.name)
    for name in POST_FREEZE:
        if name in required or name in defaulted:
            replacement = None if name == "auth" else b"\x01" * 32
            setattr(message, name, replacement)
            assert getattr(message, name) == replacement
