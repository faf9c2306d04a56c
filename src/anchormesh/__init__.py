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
    generate_coarse_anchor,
    traversal_order,
)
from .config import CodecConfig, load_config
from .grid import closest_points_on_surface
from .mesh import (
    MeshError,
    MeshValidationError,
    ObjParseError,
    TriangleMesh,
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
from .qem import decimate_to_base, refine_anchor
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
    SubdividedMesh,
    apply_displacements,
    compute_displacements,
    midpoint_subdivide,
)
from .synth import (
    SequenceSpec,
    SplitMix64,
    generate_sequence,
    make_cube,
    make_grid,
    make_sphere,
)

__version__ = "0.1.0"
