"""The package's immutable records (`padicfeas.record.Record`): construction,
validation, immutability, equality, hashing, repr, `replace` and `asdict`,
and an import of the CLI that needs none of `dataclasses`, `inspect`,
`fractions` and `decimal`."""

import os
import random
import subprocess
import sys

import pytest

import padicfeas
from padicfeas.bigmod import Modulus
from padicfeas.config import Caps, Config
from padicfeas.padic import HenselSeed, PadicDecision, Witness
from padicfeas.plaisted import BinomialProduct, Cnf3, clause_poly
from padicfeas.primes import DensityReport, ProgressionPrime
from padicfeas.record import Record
from padicfeas.reduce import ReductionTranscript, pipeline, run_with_majority

# repr strings as the frozen dataclasses printed them.
REPRS = [
    (lambda: Caps(),
     "Caps(degree=512, term_count=1000000, k_max=1000000, sieve_limit=100000000, "
     "max_vars=6)"),
    (lambda: Config(seed=7, caps=Caps(degree=64)),
     "Config(seed=7, mode='randomized', repeats=5, prime_strategy='scan', "
     "caps=Caps(degree=64, term_count=1000000, k_max=1000000, sieve_limit=100000000, "
     "max_vars=6))"),
    (lambda: PadicDecision(True, "hensel-certified", Witness(3, Modulus(7, 1))),
     "PadicDecision(feasible=True, rule='hensel-certified', "
     "witness=Witness(residue=3, modulus=Modulus(p=7, ell=1), valuation_shift=0))"),
    (lambda: HenselSeed(1, 3, 1), "HenselSeed(x0=1, ell=3, vprime=1)"),
    (lambda: Cnf3.from_signed(2, [[1, -2]]),
     "Cnf3(num_vars=2, clauses=(((1, False), (2, True)),))"),
    (lambda: clause_poly(((1, False), (2, True)), 2),
     "BinomialProduct(n=2, factors=((1, 1), (2, -1), (6, 1)))"),
    (lambda: ProgressionPrime(1, 2, 3, 7, 2),
     "ProgressionPrime(n=1, q_n=2, k=3, p=7, trials_used=2)"),
    (lambda: DensityReport(30, 1000, 20, 19.5, 20 / 19.5),
     "DensityReport(m=30, x=1000, count=20, predicted=19.5, ratio=1.0256410256410255)"),
    (lambda: pipeline(Cnf3.from_signed(2, [[1, 2], [-1], [2]]), Config(seed=3)),
     "ReductionTranscript(mode='randomized', n=2, q_n=6, k=3, "
     "cnf=Cnf3(num_vars=2, clauses=(((1, False), (2, False)), ((1, True),), "
     "((2, False),))), seed=3, prime=ProgressionPrime(n=2, q_n=6, k=1, p=7, "
     "trials_used=1), prime_strategy='scan', generator=3, omega=3, max_degree=4, "
     "big_n=648, a=(607, 558, 134), b=(379, 619, 486), qnr=6, match_count=1, "
     "first_match=3, verdict=True, witness=(0, 1))"),
]


@pytest.mark.parametrize("make, text", REPRS)
def test_repr_is_the_dataclass_repr(make, text):
    assert repr(make()) == text


def test_every_package_record_is_a_record():
    for cls in (Caps, Config, Witness, PadicDecision, HenselSeed, Cnf3, BinomialProduct,
                Modulus, ProgressionPrime, DensityReport, ReductionTranscript):
        assert issubclass(cls, Record)
    assert len(ReductionTranscript._fields) == 19


def test_construction_by_position_keyword_and_default():
    by_position = Witness(3, Modulus(7, 2), 1)
    by_keyword = Witness(valuation_shift=1, modulus=Modulus(ell=2, p=7), residue=3)
    assert by_position == by_keyword
    assert Witness(3, Modulus(7, 2)).valuation_shift == 0
    assert Caps(100).degree == 100 and Caps(100).max_vars == 6
    assert Config(caps=Caps(max_vars=7)).caps.max_vars == 7
    assert Config().caps == Caps()
    assert PadicDecision(False, "exhausted").witness is None


@pytest.mark.parametrize("call", [
    lambda: Modulus(7),                      # a field without a default is missing
    lambda: Modulus(7, 1, 2),                # too many positional arguments
    lambda: Modulus(7, 1, p=7),              # one field given twice
    lambda: Modulus(7, 1, q=3),              # an unknown field
    lambda: Caps(degreee=5),                 # an unknown field next to defaults
    lambda: HenselSeed(x0=1, ell=3),
])
def test_construction_errors(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("call, message", [
    (lambda: Config(mode="fast"), "unknown mode"),
    (lambda: Config(prime_strategy="guess"), "unknown prime strategy"),
    (lambda: Config(repeats=0), "repeats must be positive"),
    (lambda: PadicDecision(True, "guess"), "unknown decision rule"),
    (lambda: Modulus(7, 0), "exponent must be positive"),
    (lambda: Modulus(9, 1), "not prime"),
    (lambda: Cnf3(-1, ()), "nonnegative"),
    (lambda: Cnf3(2, (((3, False),),)), "out of range"),
    (lambda: Cnf3(2, (((1, 0),),)), "must be a bool"),
    (lambda: BinomialProduct(2, ((4, 1),)), "does not divide"),
    (lambda: BinomialProduct(2, ((2, 0),)), "zero exponents"),
    (lambda: ProgressionPrime(1, 2, 3, 8, 1), "must equal"),
    (lambda: ProgressionPrime(1, 2, 4, 9, 1), "not prime"),
])
def test_post_init_checks_run(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("seed", [None, "x", 1.5, True], ids=repr)
def test_config_refuses_a_seed_that_is_not_an_int(seed):
    """A transcript records its run's seed as an integer, so any other seed is
    refused when the Config is made, before any run starts."""
    with pytest.raises(ValueError, match="seed must be an integer"):
        Config(seed=seed)
    with pytest.raises(ValueError, match="seed must be an integer"):
        Config().replace(seed=seed)


def test_fields_cannot_be_assigned_or_deleted():
    caps = Caps()
    with pytest.raises(AttributeError):
        caps.degree = 1
    with pytest.raises(AttributeError):
        caps.new_field = 1
    with pytest.raises(AttributeError):
        del caps.degree
    assert caps == Caps()


def test_equality_and_hash_follow_the_fields():
    a, b = Modulus(7, 2), Modulus(7, 2)
    assert a == b and hash(a) == hash(b) and a is not b
    assert hash(a) == hash((7, 2))  # the frozen dataclass hash
    assert a != Modulus(7, 3) and a != Modulus(5, 2)
    assert a != (7, 2) and a != HenselSeed(7, 2, 0)
    assert len({Caps(), Caps(), Caps(degree=5)}) == 2
    assert {Cnf3.from_signed(1, [[1]]): 1}[Cnf3(1, (((1, False),),))] == 1


def test_replace_and_asdict():
    config = Config(seed=3, repeats=7, caps=Caps(degree=9))
    changed = config.replace(seed=11)
    assert changed == Config(seed=11, repeats=7, caps=Caps(degree=9))
    assert config.seed == 3
    with pytest.raises(ValueError, match="unknown mode"):
        config.replace(mode="fast")
    with pytest.raises(TypeError):
        config.replace(sede=1)
    assert list(Caps(max_vars=7, degree=9).asdict().items()) == [
        ("degree", 9), ("term_count", 1_000_000), ("k_max", 1_000_000),
        ("sieve_limit", 100_000_000), ("max_vars", 7)]
    assert list(Modulus(ell=2, p=7).asdict().items()) == [("p", 7), ("ell", 2)]


def test_config_to_obj_lists_the_caps():
    obj = Config(seed=5, caps=Caps(k_max=10)).to_obj()
    assert obj == {
        "seed": "5", "mode": "randomized", "repeats": 5, "prime_strategy": "scan",
        "caps": {"degree": 512, "term_count": 1_000_000, "k_max": 10,
                 "sieve_limit": 100_000_000, "max_vars": 6},
    }


def test_run_with_majority_gives_each_run_its_own_seed():
    cnf = Cnf3.from_signed(3, [[1, -2, 3], [-1, 2]])
    config = Config(seed=42, repeats=3, caps=Caps(k_max=500))
    base = random.Random(42)
    seeds = [base.getrandbits(64) for _ in range(3)]
    _, _, runs = run_with_majority(cnf, config)
    assert [t.seed for t in runs] == seeds
    for t, seed in zip(runs, seeds):
        assert t == pipeline(cnf, config.replace(seed=seed))


def test_importing_the_cli_needs_neither_dataclasses_nor_inspect():
    """Nor `fractions` (which imports `decimal`): the decider's resultant is
    computed in the integers."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(padicfeas.__file__)))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import padicfeas.cli; "
            "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
