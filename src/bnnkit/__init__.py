"""Binary neural network inference: sign-bit packing, xnor/popcount
kernels over a channel-grouped layout, a graph runtime, converters, and a
benchmark harness."""

from .bitpack import pack_naive
from .convert import (
    ConversionError,
    ConversionReport,
    ConvertOptions,
    InterchangeGraph,
    InterchangeNode,
    convert_model,
    detect_binary_convs,
    pack_conv_weight,
    parse_interchange,
    unpack_conv_weight,
)
from .kernels import (
    BinMatrix,
    ConvParams,
    MAX_GROUPS_PER_DOT,
    bgemm,
    bgemm_no_addv,
    binary_direct_conv,
    binary_direct_conv_counts,
    im2col_packed,
    match_to_dot,
)
from .layout import (
    FloatTensor,
    Layout,
    PackedTensor,
    convert_layout,
    group_count,
    index_nc1hwc2,
    pack_to_nc1hwc2,
    unpack_from_nc1hwc2,
)
from .modelfile import (
    ModelFormatError,
    deserialize_model,
    load_model,
    save_model,
    serialize_model,
)
from .nets import build_birealnet18
from .runtime import (
    Graph,
    GraphError,
    GraphInput,
    Node,
    NodeAttrs,
    OpKind,
    PackedModel,
    PackedWeight,
    execute,
)
from .tensorio import TensorFileError, read_tensor, write_tensor

__version__ = "0.1.0"
