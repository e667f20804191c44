"""The per-``Box`` geometry builders, kept as the reference.

Until the schedules were built from each level's ``BoxArray``
(:mod:`repro.mesh.box_array`), this is how ``src/`` computed fill and
coarsen transactions: every destination scans every source patch, one
``Box`` object per intermediate result.  ``tests/test_box_array.py``
asserts the array builders produce exactly these transactions -- same
patches, same boxes, same order.  Written against the public ``Box`` /
``BoxContainer`` API only.
"""

from repro.mesh.box import Box
from repro.mesh.box_container import BoxContainer
from repro.xfer.refine_schedule import needed_coarse_frame


def ghost_fill_pieces(var, patch) -> BoxContainer:
    """Disjoint regions of the ghost frame outside the patch interior."""
    return BoxContainer(
        var.frame(patch.box).remove_intersection(var.index_box(patch.box)))


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
            if (s is not dst or interior) and sbox.intersects(dst_frame)
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
                        nxt.extend(r.remove_intersection(overlap))
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
            if not src_box.intersects(frame):
                continue
            nxt = BoxContainer()
            for r in needed:
                overlap = r.intersection(src_box)
                if overlap.is_empty():
                    nxt.append(r)
                else:
                    sources.append((src, overlap))
                    nxt.extend(r.remove_intersection(overlap))
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
            if coarse.box.intersects(shadow)]


def nesting_violations(hierarchy, nesting_buffer=1):
    """``(level, patch id)`` of every patch ``check_proper_nesting`` used
    to report: coarsened, not inside the coarse footprint minus the
    buffered complement."""
    bad = []
    for n in range(1, hierarchy.num_levels):
        fine, coarse = hierarchy.levels[n], hierarchy.levels[n - 1]
        footprint = coarse.boxes()
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
