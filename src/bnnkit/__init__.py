"""Binary neural network inference: sign-bit packing, xnor/popcount
kernels over a channel-grouped layout, a graph runtime, converters, and a
benchmark harness."""

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
)
from .kernels import (
    BinMatrix,
    ConvParams,
    MAX_GROUPS_PER_DOT,
    binary_direct_conv,
)
from .layout import (
    FloatTensor,
    PackedTensor,
    group_count,
    pack_to_nc1hwc2,
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
