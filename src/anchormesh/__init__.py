"""Inter-frame dynamic mesh coding kernel.

Builds an anchor mesh that keeps the reference base mesh's connectivity while
fitting a target frame (coarse nearest-vertex matching with motion
estimation, then QEM edge-collapse refinement), extracts and adaptively
quantizes a displacement field against the target, and evaluates
reconstructions with D1/D2 PSNR and BD-rate.
"""

from .coarse import (
    OFF_VERTEX,
    AnchorMesh,
    MotionField,
    estimate_motion,
    generate_coarse_anchor,
    traversal_order,
)
from .config import CodecConfig, load_config
from .mesh import (
    AdjacencyMap,
    DegenerateFaceError,
    MeshError,
    MeshValidationError,
    ObjParseError,
    SurfacePoint,
    TriangleMesh,
    build_adjacency,
    closest_point_on_surface,
    closest_point_on_triangle,
    closest_points_on_surface,
    load_mesh,
    save_mesh,
)
from .metrics import DistortionReport, RDCurve, bd_rate, distortion
from .octree import Octree, build_octree, nearest
from .payload import (
    BaseHashMismatchError,
    Payload,
    PayloadError,
    PayloadFormatError,
    mesh_content_hash,
    read_payload,
    write_payload,
)
from .pipeline import EncodeResult, decode_payload, encode_pair
from .qem import refine_anchor
from .quantize import (
    QuantizationParams,
    QuantizedDisplacementField,
    adaptive_weights,
    dequantize_field,
    neighbor_counts,
    quantize_field,
    round_half_away_from_zero,
)
from .subdivide import (
    DisplacementField,
    SubdividedMesh,
    apply_displacements,
    compute_displacements,
    midpoint_subdivide,
)
from .synth import (
    SequenceSpec,
    SplitMix64,
    decimate_to_base,
    generate_sequence,
    make_cube,
    make_grid,
    make_sphere,
)

__version__ = "0.1.0"
