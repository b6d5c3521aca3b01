from oracles import SplitMix64
from treelab.rng import mix_seed


def test_known_answer_stream():
    # Reference outputs of the published generator for seed 0; freezing them
    # pins the documented stream so seeds stay valid across releases.
    r = SplitMix64(0)
    assert [r.next_uint64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_mix_seed_known_answer():
    # mix_seed(base, i) is output i + 1 of SplitMix64(base); pinning it to the
    # published outputs keeps every bootstrap and fold seed valid across
    # releases, independently of the oracle generator above.
    assert [mix_seed(0, i) for i in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_streams_are_deterministic():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_uint64() for _ in range(10)] == [b.next_uint64() for _ in range(10)]


def test_mix_seed_separates_indices():
    seeds = {mix_seed(42, i) for i in range(1000)}
    assert len(seeds) == 1000


def test_below_bounds():
    r = SplitMix64(7)
    draws = [r.below(10) for _ in range(1000)]
    assert min(draws) >= 0 and max(draws) <= 9
    assert len(set(draws)) == 10
