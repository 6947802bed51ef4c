"""Incremental board-grid state, the bitmask sub-mesh search, the
allocator's miss memo, the locality fraction and single job-size draws.

The grid's per-row masks and counters are compared with a recount of the
state matrix after random write sequences; the mask search with a
transcription of the frozenset search it replaced; the memoising allocator
with fresh allocators; the closed-form alltoall locality fraction with the
pairwise loop it replaced; and ``JobSizeDistribution.draw`` with
``Generator.choice``.
"""


import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.allocation.greedy as greedy_module
from repro.allocation import (
    AllocatorOptions,
    BoardGrid,
    GreedyAllocator,
    JobRequest,
    JobSizeDistribution,
    alibaba_like_distribution,
    most_square_shape,
)
from repro.allocation.grid import FAILED, FREE
from repro.allocation.locality import _pair_fraction
from repro.core.subnetwork import VirtualSubMesh, find_submesh_masks, find_submesh_rows


def frozenset_search(row_available, u, v, try_all_starts=False):
    """The frozenset search the mask search replaced (the differential oracle)."""
    if u < 1 or v < 1:
        raise ValueError("sub-mesh dimensions must be positive")
    num_rows = len(row_available)
    if u > num_rows:
        return None
    for start in range(num_rows):
        if len(row_available[start]) < v:
            continue
        selected = [start]
        intersection = set(row_available[start])
        for r in range(num_rows):
            if len(selected) >= u:
                break
            if r == start or len(row_available[r]) < v:
                continue
            candidate = intersection & row_available[r]
            if len(candidate) >= v:
                selected.append(r)
                intersection = candidate
        if len(selected) >= u:
            rows = tuple(sorted(selected[:u]))
            return VirtualSubMesh(rows=rows, cols=tuple(sorted(intersection)[:v]))
        if not try_all_starts:
            return None
    return None


def assert_matches_recount(grid):
    state = grid.occupancy_matrix()
    assert list(grid.row_masks) == [
        sum(1 << c for c, s in enumerate(row) if s == FREE) for row in state
    ]
    assert list(grid.row_free_counts) == [row.count(FREE) for row in state]
    assert grid.num_free == sum(row.count(FREE) for row in state)
    assert grid.num_failed == sum(row.count(FAILED) for row in state)
    assert grid.num_allocated == sum(s >= 0 for row in state for s in row)
    assert grid.row_available() == [
        frozenset(c for c in range(grid.x) if state[r][c] == FREE) for r in range(grid.y)
    ]


WRITES = ("allocate", "release", "fail_boards", "fail_random", "repair_boards", "reset")


class TestIncrementalGridState:
    @given(x=st.integers(1, 12), y=st.integers(1, 12), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_derived_state_matches_recount_after_every_write(self, x, y, data):
        grid = BoardGrid(x, y)
        coord = st.tuples(st.integers(0, y - 1), st.integers(0, x - 1))
        for job_id in range(data.draw(st.integers(1, 25), label="steps")):
            write = data.draw(st.sampled_from(WRITES), label="write")
            version, matrix = grid.version, grid.occupancy_matrix()
            if write == "allocate":
                u = data.draw(st.integers(1, y), label="u")
                v = data.draw(st.integers(1, x), label="v")
                submesh = find_submesh_rows(grid.row_available(), u, v, try_all_starts=True)
                if submesh is None:  # an arbitrary product of rows and columns
                    rows = data.draw(st.sets(st.integers(0, y - 1), min_size=1), label="rows")
                    cols = data.draw(st.sets(st.integers(0, x - 1), min_size=1), label="cols")
                    submesh = VirtualSubMesh(rows=tuple(sorted(rows)), cols=tuple(sorted(cols)))
                if all(grid.is_free(b) for b in submesh.boards()):
                    grid.allocate(job_id, submesh)
                else:
                    with pytest.raises(ValueError):
                        grid.allocate(job_id, submesh)
            elif write == "release":
                if grid.jobs():
                    grid.release(data.draw(st.sampled_from(grid.jobs()), label="job"))
            elif write == "fail_boards":
                # an allocated board rejects the whole write
                boards = data.draw(st.lists(coord, max_size=6), label="boards")
                if all(grid.job_at(b) is None for b in boards):
                    grid.fail_boards(boards)
                else:
                    with pytest.raises(ValueError):
                        grid.fail_boards(boards)
                    assert grid.version == version and grid.occupancy_matrix() == matrix
            elif write == "fail_random":
                count = data.draw(st.integers(0, grid.num_free), label="count")
                grid.fail_random(count, seed=data.draw(st.integers(0, 999), label="seed"))
            elif write == "repair_boards":
                # mostly failed boards; one that is not failed rejects the whole write
                pool = grid.failed_coords() + [data.draw(coord, label="board")]
                boards = data.draw(st.lists(st.sampled_from(pool), max_size=6), label="boards")
                if all(grid.state(b) == FAILED for b in boards):
                    grid.repair_boards(boards)
                else:
                    with pytest.raises(ValueError):
                        grid.repair_boards(boards)
                    assert grid.version == version and grid.occupancy_matrix() == matrix
            else:
                grid.reset(keep_failures=data.draw(st.booleans(), label="keep_failures"))
            assert_matches_recount(grid)
            if grid.occupancy_matrix() != matrix:
                assert grid.version != version


class TestMalformedSubMesh:
    @pytest.mark.parametrize(
        "write, arg, message",
        [
            pytest.param("allocate", ((0, 0), (1, 2)), "sub-mesh rows", id="allocate-repeated-row"),
            pytest.param("allocate", ((1,), (2, 2)), "sub-mesh rows", id="allocate-repeated-col"),
            pytest.param("allocate", ((-1,), (1,)), "sub-mesh rows", id="allocate-negative-row"),
            pytest.param("allocate", ((5,), (1,)), "sub-mesh rows", id="allocate-row-past-grid"),
            pytest.param("allocate", ((4,), (1,)), "sub-mesh rows", id="allocate-row-at-grid-edge"),
            pytest.param("allocate", ((1,), (-1,)), "sub-mesh rows", id="allocate-negative-col"),
            pytest.param("allocate", ((1,), (3, 4)), "sub-mesh rows", id="allocate-col-past-grid"),
            pytest.param("allocate", ((), (1,)), "sub-mesh rows", id="allocate-no-rows"),
            pytest.param("allocate", ((1,), ()), "sub-mesh rows", id="allocate-no-cols"),
            # a negative index must not wrap to the last row or column
            pytest.param(
                "fail_boards", [(0, -1)], "off the 4 rows x 4 cols grid", id="fail-negative-col"
            ),
            pytest.param("fail_boards", [(-1, 0)], "off the", id="fail-negative-row"),
            # a good board first: nothing may be written before the error
            pytest.param("fail_boards", [(0, 0), (9, 9)], "off the", id="fail-past-grid"),
            pytest.param("fail_boards", [(0, 0), (3, 1)], "is allocated", id="fail-allocated"),
            pytest.param("repair_boards", [(2, 2), (0, 0)], "is not failed", id="repair-free"),
            pytest.param("repair_boards", [(2, 2), (2, 4)], "off the", id="repair-past-grid"),
            pytest.param("repair_boards", [(-2, 2)], "off the", id="repair-negative-row"),
        ],
    )
    def test_rejected_with_grid_unchanged(self, write, arg, message):
        grid = BoardGrid(4, 4)
        grid.fail_boards([(2, 2)])
        grid.allocate(0, VirtualSubMesh(rows=(3,), cols=(0, 1)))
        version, matrix = grid.version, grid.occupancy_matrix()
        with pytest.raises(ValueError, match=message) as err:
            if write == "allocate":
                grid.allocate(1, VirtualSubMesh(rows=arg[0], cols=arg[1]))
            else:
                getattr(grid, write)(arg)
        assert "\n" not in str(err.value)
        assert grid.version == version
        assert grid.occupancy_matrix() == matrix
        assert grid.jobs() == [0] and grid.boards_of(1) == []
        assert_matches_recount(grid)

    def test_busy_board_named_in_row_major_order(self):
        grid = BoardGrid(4, 4)
        grid.fail_boards([(1, 2)])
        grid.allocate(0, VirtualSubMesh(rows=(0,), cols=(3,)))
        version = grid.version
        with pytest.raises(ValueError, match=r"^board \(0, 3\) is not free$"):
            grid.allocate(1, VirtualSubMesh(rows=(0, 1), cols=(2, 3)))
        with pytest.raises(ValueError, match=r"^board \(1, 2\) is not free$"):
            grid.allocate(1, VirtualSubMesh(rows=(1, 0), cols=(2, 1)))
        assert grid.version == version and grid.jobs() == [0]


class TestMaskSearch:
    @given(x=st.integers(1, 12), try_all_starts=st.booleans(), data=st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_frozenset_search(self, x, try_all_starts, data):
        full = (1 << x) - 1
        # few distinct masks, so rows repeat (the skipped starts) and some are empty
        palette = data.draw(
            st.lists(st.one_of(st.just(full), st.just(0), st.integers(0, full)), min_size=1, max_size=4),
            label="palette",
        )
        masks = data.draw(st.lists(st.sampled_from(palette), min_size=1, max_size=12), label="masks")
        u = data.draw(st.one_of(st.just(len(masks)), st.integers(1, len(masks) + 1)), label="u")
        v = data.draw(st.one_of(st.just(x), st.integers(1, x)), label="v")
        sets = [frozenset(c for c in range(x) if m >> c & 1) for m in masks]
        expected = frozenset_search(sets, u, v, try_all_starts)
        assert find_submesh_rows(sets, u, v, try_all_starts=try_all_starts) == expected
        counts = [len(s) for s in sets]
        assert find_submesh_masks(masks, counts, u, v, try_all_starts=try_all_starts) == expected

    def test_matches_frozenset_search_on_fragmented_grids(self):
        # holes at a few densities: most shapes fit, unlike uniform random masks
        rng = np.random.default_rng(12)
        for _ in range(300):
            y, x = (int(n) for n in rng.integers(1, 13, size=2))
            holes = rng.random((y, x)) < rng.choice([0.0, 0.1, 0.3, 0.6])
            sets = [frozenset(c for c in range(x) if not holes[r, c]) for r in range(y)]
            u, v = int(rng.integers(1, y + 1)), int(rng.integers(1, x + 1))
            for shape in {(u, v), (y, x), (y, 1), (1, x)}:
                for try_all_starts in (False, True):
                    assert find_submesh_rows(
                        sets, *shape, try_all_starts=try_all_starts
                    ) == frozenset_search(sets, *shape, try_all_starts)

    def test_rejects_empty_shapes(self):
        for u, v in ((0, 1), (1, 0)):
            with pytest.raises(ValueError):
                find_submesh_masks([1], [1], u, v)


class TestMissMemo:
    def test_repeated_miss_is_not_searched_again_until_a_write(self, monkeypatch):
        grid = BoardGrid(4, 4)
        grid.fail_boards([(0, 0)])
        allocator = GreedyAllocator(grid)
        # leaves column 0 free in rows 1-3: nothing wider than one column fits
        assert allocator.allocate(JobRequest(0, 4, 3)) is not None
        searched = []
        search = greedy_module.find_submesh_masks

        def counting_search(masks, counts, u, v, **kwargs):
            searched.append((u, v))
            return search(masks, counts, u, v, **kwargs)

        monkeypatch.setattr(greedy_module, "find_submesh_masks", counting_search)
        assert allocator.allocate(JobRequest(1, 2, 2)) is None
        assert allocator.allocate(JobRequest(2, 2, 2)) is None
        assert searched == [(2, 2)]
        grid.release(0)
        # a miss on the new grid state must not revive the old one
        assert allocator.allocate(JobRequest(3, 4, 4)) is None
        assert allocator.allocate(JobRequest(4, 2, 2)) is not None
        assert searched == [(2, 2), (4, 4), (2, 2)]

    @pytest.mark.parametrize("write", ["allocate", "release", "fail_boards", "repair_boards"])
    def test_miss_covers_taller_shapes_of_its_width_until_a_write(self, write, monkeypatch):
        grid = BoardGrid(4, 4)
        # row 0 has columns 0-2 free, row 1 only column 3 (job 9's), rows 2-3 nothing
        grid.fail_boards([(0, 3), (1, 0), (1, 1), (1, 2)] + [(r, c) for r in (2, 3) for c in range(4)])
        grid.allocate(9, VirtualSubMesh(rows=(1,), cols=(3,)))
        allocator = GreedyAllocator(grid)
        searched = []
        search = greedy_module.find_submesh_masks

        def counting_search(masks, counts, u, v, **kwargs):
            searched.append((u, v))
            return search(masks, counts, u, v, **kwargs)

        monkeypatch.setattr(greedy_module, "find_submesh_masks", counting_search)
        assert allocator.allocate(JobRequest(0, 2, 3)) is None
        assert allocator.allocate(JobRequest(1, 3, 3)) is None  # taller: not searched
        assert allocator.allocate(JobRequest(2, 2, 2)) is None  # narrower: searched
        assert searched == [(2, 3), (2, 2)]
        if write == "allocate":
            assert allocator.allocate(JobRequest(3, 1, 3)) is not None  # shorter: searched
            assert searched[-1] == (1, 3)
        elif write == "release":
            grid.release(9)
        elif write == "fail_boards":
            grid.fail_boards([(0, 0)])
        else:
            grid.repair_boards([(3, 3)])
        searched.clear()
        assert allocator.allocate(JobRequest(4, 3, 3)) is None
        assert allocator.allocate(JobRequest(5, 2, 3)) is None
        assert allocator.allocate(JobRequest(6, 2, 2)) is None
        assert searched == [(3, 3), (2, 3), (2, 2)]

    def test_a_miss_says_nothing_about_wider_shapes(self):
        # free columns per row: {0, 1}, {0, 2, 3} twice, {1, 2, 3} twice.
        # With v = 1 every start admits a row that leaves it one column the
        # other rows lack, so 4 x 1 misses; with v = 2 that row is skipped.
        free = [{0, 1}, {0, 2, 3}, {0, 2, 3}, {1, 2, 3}, {1, 2, 3}]
        grid = BoardGrid(4, 5)
        grid.fail_boards([(r, c) for r, cols in enumerate(free) for c in range(4) if c not in cols])
        allocator = GreedyAllocator(grid)
        assert allocator.allocate(JobRequest(0, 4, 1)) is None
        placed = allocator.allocate(JobRequest(1, 4, 2))
        assert placed == VirtualSubMesh(rows=(1, 2, 3, 4), cols=(2, 3))

    @given(x=st.integers(1, 10), y=st.integers(1, 10), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_miss_is_a_miss_for_every_taller_shape(self, x, y, data):
        masks = data.draw(st.lists(st.integers(0, (1 << x) - 1), min_size=y, max_size=y))
        counts = [bin(m).count("1") for m in masks]
        v = data.draw(st.integers(1, x), label="v")
        misses = [
            u for u in range(1, y + 1)
            if find_submesh_masks(masks, counts, u, v, try_all_starts=True) is None
        ]
        if misses:
            assert misses == list(range(misses[0], y + 1))

    @given(
        steps=st.lists(
            st.tuples(st.integers(0, 2), st.integers(1, 20), st.integers(0, 999)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_memo_never_changes_a_placement(self, steps):
        # one long-lived allocator against a fresh one (empty memo) per job
        kept, fresh = BoardGrid(8, 6), BoardGrid(8, 6)
        options = AllocatorOptions(transpose=True, aspect_ratio=True)
        allocator = GreedyAllocator(kept, options)
        for job_id, (kind, boards, pick) in enumerate(steps):
            if kind == 0 or not kept.jobs():
                job = JobRequest(job_id, *most_square_shape(boards))
                assert allocator.allocate(job) == GreedyAllocator(fresh, options).allocate(job)
            elif kind == 1:
                victim = kept.jobs()[pick % len(kept.jobs())]
                kept.release(victim)
                fresh.release(victim)
            elif kept.free_coords():
                board = kept.free_coords()[pick % len(kept.free_coords())]
                kept.fail_boards([board])
                fresh.fail_boards([board])
        assert kept.occupancy_matrix() == fresh.occupancy_matrix()


def pairwise_fraction(coords, boards_per_leaf, pattern):
    """The pairwise-loop locality fraction the closed form replaced (the oracle)."""
    n = len(coords)
    if n < 2 or boards_per_leaf <= 0:
        return 0.0
    leaves = [c // boards_per_leaf for c in coords]
    if pattern == "alltoall":
        crossing = total = 0
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                total += 1
                if leaves[i] != leaves[j]:
                    crossing += 1
        return crossing / total if total else 0.0
    ordered = sorted(range(n), key=lambda i: coords[i])
    crossing = 0
    for k in range(n):
        a, b = ordered[k], ordered[(k + 1) % n]
        if leaves[a] != leaves[b]:
            crossing += 1
    return crossing / n


class TestLocalityFraction:
    @given(
        coords=st.lists(st.integers(0, 200), max_size=40),
        boards_per_leaf=st.integers(-1, 40),
        pattern=st.sampled_from(["alltoall", "allreduce"]),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_pairwise_loop(self, coords, boards_per_leaf, pattern):
        # bit for bit: the closed form must reproduce the loop's float exactly
        expected = pairwise_fraction(coords, boards_per_leaf, pattern)
        assert _pair_fraction(coords, boards_per_leaf, pattern) == expected

    def test_short_coordinate_lists_cross_nothing(self):
        for coords in ((), (7,)):
            for pattern in ("alltoall", "allreduce"):
                assert _pair_fraction(coords, 16, pattern) == 0.0


class TestJobSizeDraw:
    def test_draw_reads_the_same_stream_as_choice(self):
        dist = alibaba_like_distribution()
        for seed in range(200):
            fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(25):
                assert dist.draw(fast) == int(dist.sample(reference, 1)[0])
            assert fast.bit_generator.state == reference.bit_generator.state

    @given(
        weights=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=1, max_size=8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_draw_matches_choice_on_any_distribution(self, weights, seed):
        if not any(weights):
            weights[0] = 1.0
        total = sum(weights)
        dist = JobSizeDistribution(
            tuple(range(1, len(weights) + 1)), tuple(w / total for w in weights)
        )
        fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(20):
            assert dist.draw(fast) == int(dist.sample(reference, 1)[0])
        assert fast.bit_generator.state == reference.bit_generator.state
