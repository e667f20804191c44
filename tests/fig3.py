"""The paper's Fig. 3 class names, as constructors.

``src/repro`` has one ``PatchData``; each of the paper's six classes is the
(centring, memory space) pair it names.  Tests that build patch data by
hand use these so the mapping stays visible (and pytest ids stay readable).
"""

from repro.mesh.variables import Variable
from repro.pdat import HOST, PatchData


def CellData(box, ghosts, space=HOST, **kw):
    return PatchData(Variable("q", "cell", ghosts), box, space, **kw)


def NodeData(box, ghosts, space=HOST, **kw):
    return PatchData(Variable("q", "node", ghosts), box, space, **kw)


def SideData(box, ghosts, axis, space=HOST, **kw):
    return PatchData(Variable("q", "side", ghosts, axis), box, space, **kw)


def CudaCellData(box, ghosts, space, **kw):
    return CellData(box, ghosts, space, **kw)


def CudaNodeData(box, ghosts, space, **kw):
    return NodeData(box, ghosts, space, **kw)


def CudaSideData(box, ghosts, axis, space, **kw):
    return SideData(box, ghosts, axis, space, **kw)
