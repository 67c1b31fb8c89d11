"""Holomorphic maps given by value and derivative evaluators.

The builtins are the maps used throughout the verification suites:

    identity         z
    square           z^2
    mobius(a)        (z - a)/(1 - conj(a) z), a disk automorphism
    phi              z - (z - 1)^3 / 12, the boundary-rigidity witness on D
    example1         z exp(-(1+z)/(1-z)), a self-map of the punctured disk

MAPS maps each builtin name to its constructor, its canonical source domain
and whether it takes a parameter. All evaluators accept scalars or numpy
arrays of complex numbers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .domains import DomainModel
from .errors import BadParameter


@dataclass(frozen=True)
class HolomorphicMap:
    value: Callable
    derivative: Callable
    label: str


def identity_map() -> HolomorphicMap:
    return HolomorphicMap(lambda z: np.asarray(z, dtype=complex) + 0.0,
                          lambda z: np.ones_like(np.asarray(z, dtype=complex)),
                          "identity")


def square_map() -> HolomorphicMap:
    return HolomorphicMap(lambda z: np.asarray(z, dtype=complex) ** 2,
                          lambda z: 2.0 * np.asarray(z, dtype=complex),
                          "square")


def mobius_map(a: complex) -> HolomorphicMap:
    """Disk automorphism z -> (z - a)/(1 - conj(a) z); requires |a| < 1."""
    a = complex(a)
    if not DomainModel.disk().contains(a):
        raise BadParameter(f"mobius parameter must satisfy |a| < 1, got {a}")
    ac = a.conjugate()

    def value(z):
        z = np.asarray(z, dtype=complex)
        return (z - a) / (1.0 - ac * z)

    def derivative(z):
        z = np.asarray(z, dtype=complex)
        return (1.0 - abs(a) ** 2) / (1.0 - ac * z) ** 2

    return HolomorphicMap(value, derivative, f"mobius:{a.real},{a.imag}")


def phi_map() -> HolomorphicMap:
    """The cubic perturbation of the identity, phi(z) = z - (z-1)^3/12.

    phi is an injective holomorphic self-map of the unit disk fixing z = 1
    with phi'(1) = 1; its exact derivative is 1 - (z-1)^2/4.
    """

    def value(z):
        z = np.asarray(z, dtype=complex)
        return z - (z - 1.0) ** 3 / 12.0

    def derivative(z):
        z = np.asarray(z, dtype=complex)
        return 1.0 - (z - 1.0) ** 2 / 4.0

    return HolomorphicMap(value, derivative, "phi")


def example1_map() -> HolomorphicMap:
    """The punctured-disk self-map f(z) = z exp(-(1+z)/(1-z)).

    The derivative has the closed form
        f'(z) = (1 - 4z + z^2)/(1 - z)^2 * exp(-(1+z)/(1-z)),
    which is regular at z = 0 (f'(0) = 1/e).
    """

    def _expfac(z):
        return np.exp(-(1.0 + z) / (1.0 - z))

    def value(z):
        z = np.asarray(z, dtype=complex)
        return z * _expfac(z)

    def derivative(z):
        z = np.asarray(z, dtype=complex)
        return (1.0 - 4.0 * z + z * z) / (1.0 - z) ** 2 * _expfac(z)

    return HolomorphicMap(value, derivative, "example1")


class BuiltinMap(NamedTuple):
    make: Callable[..., HolomorphicMap]
    source: DomainModel  # canonical source domain
    takes_param: bool = False  # True: make takes one complex parameter


MAPS = {
    "identity": BuiltinMap(identity_map, DomainModel.disk()),
    "square": BuiltinMap(square_map, DomainModel.disk()),
    "phi": BuiltinMap(phi_map, DomainModel.disk()),
    "example1": BuiltinMap(example1_map, DomainModel.punctured_disk()),
    "mobius": BuiltinMap(mobius_map, DomainModel.disk(), True),
}
