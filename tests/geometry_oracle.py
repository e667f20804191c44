"""The per-``Box`` geometry builders, kept as the reference.

Until the schedules were built from each level's ``BoxArray``
(:mod:`repro.mesh.box_array`), this is how ``src/`` computed fill and
coarsen transactions: every destination scans every source patch, one
``Box`` object per intermediate result.  ``tests/test_box_array.py``
asserts the array builders produce exactly these transactions -- same
patches, same boxes, same order.  Written against the public ``Box``
API and the ``BoxContainer`` set calculus below, which nothing in
``src/`` uses any more; so is :func:`check_proper_nesting`, the
nesting invariant the tests assert on every hierarchy they build.
"""

import itertools
from typing import Iterable, Iterator, List

from repro.mesh.box import Box, IntVector, cut, meet
from repro.mesh.box_array import claim, coalesce
from repro.xfer.refine_schedule import needed_coarse_frame


def cell_indices(box: Box) -> Iterator[tuple[int, ...]]:
    """Every cell index in ``box``, row-major."""
    if box.is_empty():
        return iter(())
    return itertools.product(*(range(lo, hi + 1)
                               for lo, hi in zip(box.lower, box.upper)))


def contains(box: Box, index) -> bool:
    """Does ``box`` contain the cell ``index``?"""
    if len(index) != box.dim:
        raise ValueError(f"dimension mismatch: {box} vs {index}")
    return all(lo <= i <= hi for lo, i, hi in zip(box.lower, index, box.upper))


def intersects(a: Box, b: Box) -> bool:
    return meet(a.lower, a.upper, b.lower, b.upper) is not None


def remove_intersection(box: Box, other: Box) -> list[Box]:
    """Disjoint boxes covering ``box`` minus ``other`` (:func:`cut`'s sweep
    decomposition): disjoint, and their union is exactly the difference."""
    overlap = meet(box.lower, box.upper, other.lower, other.upper)
    if overlap is None:
        return [] if box.is_empty() else [box]
    return [Box(lo, hi) for lo, hi in cut(box.lower, box.upper, *overlap)]


class BoxContainer:
    """An ordered collection of boxes with set-like calculus (SAMRAI's
    ``BoxContainer``).  Boxes may overlap unless stated otherwise."""

    def __init__(self, boxes: Iterable[Box] = ()):
        self._boxes: List[Box] = [b for b in boxes if not b.is_empty()]

    # The set algebra runs on corner rows (:mod:`repro.mesh.box_array`).

    def _rows(self) -> list:
        return [(b.lower, b.upper) for b in self._boxes]

    @classmethod
    def _of_rows(cls, rows) -> "BoxContainer":
        return cls(Box(lo, hi) for lo, hi in rows)

    # -- container protocol --------------------------------------------------

    def __iter__(self) -> Iterator[Box]:
        return iter(self._boxes)

    def __len__(self) -> int:
        return len(self._boxes)

    def __getitem__(self, i: int) -> Box:
        return self._boxes[i]

    def append(self, box: Box) -> None:
        if not box.is_empty():
            self._boxes.append(box)

    def extend(self, boxes: Iterable[Box]) -> None:
        for b in boxes:
            self.append(b)

    def is_empty(self) -> bool:
        return not self._boxes

    def total_size(self) -> int:
        """Total cell count, assuming the boxes are disjoint."""
        return sum(b.size() for b in self._boxes)

    def bounding_box(self) -> Box:
        if not self._boxes:
            raise ValueError("bounding box of empty container")
        out = self._boxes[0]
        for b in self._boxes[1:]:
            out = out.bounding(b)
        return out

    # -- calculus -------------------------------------------------------------

    def remove_intersections(self, other: "BoxContainer | Box") -> "BoxContainer":
        """Set difference: self minus the union of ``other``.

        The result is a container of disjoint pieces if ``self`` was
        disjoint; otherwise pieces may overlap exactly where ``self`` did.
        """
        takeaway = [other] if isinstance(other, Box) else other
        return BoxContainer._of_rows(claim(
            self._rows(), ((None, t.lower, t.upper) for t in takeaway)))

    def intersect(self, other: "BoxContainer | Box") -> "BoxContainer":
        """All nonempty pairwise intersections with ``other``."""
        others = [other] if isinstance(other, Box) else list(other)
        out = BoxContainer()
        for b in self._boxes:
            for o in others:
                out.append(b.intersection(o))
        return out

    def contains_box(self, box: Box) -> bool:
        """Does the union of this container cover ``box`` entirely?"""
        return box.is_empty() or not claim(
            [(box.lower, box.upper)],
            ((None, b.lower, b.upper) for b in self._boxes))

    def coalesce(self) -> "BoxContainer":
        """Greedily merge boxes that tile a larger box exactly
        (:func:`repro.mesh.box_array.coalesce`).  Keeps box counts small after
        ``remove_intersections``.
        """
        return BoxContainer._of_rows(coalesce(self._rows()))

    def coarsen(self, ratio: "int | IntVector") -> "BoxContainer":
        return BoxContainer(b.coarsen(ratio) for b in self._boxes)

    def refine(self, ratio: "int | IntVector") -> "BoxContainer":
        return BoxContainer(b.refine(ratio) for b in self._boxes)


def level_boxes(level) -> BoxContainer:
    """Every patch box of ``level``, in patch order."""
    return BoxContainer(p.box for p in level)


def check_proper_nesting(hierarchy, nesting_buffer: int = 1) -> list[str]:
    """Violations of the nesting rules (empty list when valid).

    A level-l box, coarsened to level l-1, must lie inside the union of
    level-(l-1) boxes shrunk by the nesting buffer (except at physical
    boundaries, where the domain edge is allowed).
    """
    problems: list[str] = []
    for n in range(1, hierarchy.num_levels):
        fine = hierarchy.levels[n]
        coarse = hierarchy.levels[n - 1]
        # A coarsened fine box lies in the coarse footprint shrunk by
        # the buffer wherever that abuts uncovered cells (not at
        # patch seams or the physical boundary) exactly when the box
        # grown by the buffer, clipped to the domain, is covered.
        need = (fine.box_array.coarsen(fine.ratio_to_coarser)
                .grow(nesting_buffer).intersect(coarse.domain))
        for p, (_, left) in zip(fine, coarse.box_array.claims(need)):
            if left:
                problems.append(
                    f"level {n} patch {p.global_id} {p.box} not nested "
                    f"within level {n - 1} minus buffer"
                )
    return problems


def ghost_fill_pieces(var, patch) -> BoxContainer:
    """Disjoint regions of the ghost frame outside the patch interior."""
    return BoxContainer(
        remove_intersection(var.frame(patch.box), var.index_box(patch.box)))


def fill_geometry(dst_level, coarse_level, sig, src_level, interior=False):
    """``(copies, interps)`` as ``build_fill_geometry`` used to make them:
    copies ``(src patch, dst patch, box)``, interps ``(dst patch, region,
    coarse frame, [(coarse patch, box)])``."""
    copies, interps = [], []
    domain_idx = sig.index_box(dst_level.domain)
    src_patches = list(src_level) if src_level is not None else []
    src_interiors = [sig.index_box(s.box) for s in src_patches]
    for dst in dst_level:
        if interior:
            pieces = BoxContainer([sig.index_box(dst.box)])
        else:
            pieces = ghost_fill_pieces(sig, dst)
        dst_frame = sig.frame(dst.box)
        candidates = [
            (s, sbox) for s, sbox in zip(src_patches, src_interiors)
            if (s is not dst or interior) and intersects(sbox, dst_frame)
        ]
        remaining = BoxContainer()
        for piece in pieces:
            left = [piece]
            for src, src_interior in candidates:
                nxt = []
                for r in left:
                    overlap = r.intersection(src_interior)
                    if overlap.is_empty():
                        nxt.append(r)
                    else:
                        copies.append((src, dst, overlap))
                        nxt.extend(remove_intersection(r, overlap))
                left = nxt
                if not left:
                    break
            remaining.extend(left)
        interp_regions = remaining.intersect(domain_idx).coalesce()
        if interp_regions.is_empty():
            continue
        if coarse_level is None:
            raise ValueError("needs coarse-level fill but no coarser level exists")
        for region in interp_regions:
            interps.append(
                _interp_geom(sig, dst, region, dst_level, coarse_level))
    return copies, interps


def _interp_geom(sig, dst, region, dst_level, coarse_level):
    frame = needed_coarse_frame(sig, region, dst_level.ratio_to_coarser)
    needed = BoxContainer([frame.intersection(sig.index_box(coarse_level.domain))])
    sources = []
    for use_frame in (False, True):
        if needed.is_empty():
            break
        for src in coarse_level:
            src_box = sig.frame(src.box) if use_frame else sig.index_box(src.box)
            if not intersects(src_box, frame):
                continue
            nxt = BoxContainer()
            for r in needed:
                overlap = r.intersection(src_box)
                if overlap.is_empty():
                    nxt.append(r)
                else:
                    sources.append((src, overlap))
                    nxt.extend(remove_intersection(r, overlap))
            needed = nxt
            if needed.is_empty():
                break
    if not needed.is_empty():
        raise ValueError("coarse level does not cover interpolation stencil")
    return dst, region, frame, sources


def coarsen_transactions(fine_level, coarse_level):
    """``(fine patch, coarse patch, box)`` as ``CoarsenSchedule._build``
    used to list them."""
    ratio = fine_level.ratio_to_coarser
    shadows = [(fine, fine.box.coarsen(ratio)) for fine in fine_level]
    return [(fine, coarse, coarse.box.intersection(shadow))
            for coarse in coarse_level for fine, shadow in shadows
            if intersects(coarse.box, shadow)]


def nesting_violations(hierarchy, nesting_buffer=1):
    """``(level, patch id)`` of every patch :func:`check_proper_nesting`
    used to report: coarsened, not inside the coarse footprint minus the
    buffered complement."""
    bad = []
    for n in range(1, hierarchy.num_levels):
        fine, coarse = hierarchy.levels[n], hierarchy.levels[n - 1]
        footprint = level_boxes(coarse)
        complement = BoxContainer([coarse.domain]).remove_intersections(footprint)
        grown = BoxContainer(b.grow(nesting_buffer) for b in complement)
        allowed = footprint.remove_intersections(grown)
        bad.extend((n, p.global_id) for p in fine
                   if not allowed.contains_box(p.box.coarsen(fine.ratio_to_coarser)))
    return bad


def chop_box(box: Box, max_size: int) -> list[Box]:
    """Tiles of at most ``max_size`` per dimension, as equal as possible."""
    pieces = [box]
    for axis in range(box.dim):
        nxt = []
        for b in pieces:
            extent = b.shape()[axis]
            parts = -(-extent // max_size)
            if parts <= 1:
                nxt.append(b)
                continue
            base, rem = divmod(extent, parts)
            start = b.lower[axis]
            for p in range(parts):
                width = base + (1 if p < rem else 0)
                lo, hi = list(b.lower), list(b.upper)
                lo[axis], hi[axis] = start, start + width - 1
                nxt.append(Box(lo, hi))
                start += width
        pieces = nxt
    return pieces
