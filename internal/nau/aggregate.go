package nau

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// LevelUDF is the user-defined aggregation function for one HDG level (the
// paper's aggr_udf_i in Fig. 6). Op selects the built-in reduction; setting
// Attention replaces the reduction with a softmax-weighted combination of a
// slot's instances scored by tanh(feats @ Attention) (MAGNN's intermediate
// step, Engine.Attention).
type LevelUDF struct {
	Op        tensor.ReduceOp
	Attention *nn.Value // optional [dim, 1] scorer, intermediate level only
}

// Sum, Mean, Max and Min are the paper's §6 built-in aggregation
// functions as convenience level UDFs.
var (
	Sum  = LevelUDF{Op: tensor.ReduceSum}
	Mean = LevelUDF{Op: tensor.ReduceMean}
	Max  = LevelUDF{Op: tensor.ReduceMax}
	Min  = LevelUDF{Op: tensor.ReduceMin}
)

// Aggregate is the level-wise aggregation driver of the paper's Fig. 6:
// starting from the bottom level of the HDGs, it applies one UDF per level
// and returns the features of the HDG roots as the neighborhood
// representation.
//
// The number of UDFs must match the context's dependency structure:
//
//   - DNFA layers (no HDG) and flat HDGs take exactly one UDF, reducing
//     1-hop neighbors or single-vertex instances straight into roots;
//   - hierarchical HDGs take exactly three UDFs: leaves -> instances,
//     instances -> (root, type) slots, slots -> roots.
//
// Each level executes on the hybrid engine's preferred path for that level
// (§4.2): feature fusion at the bottom, a segment reduction over the HDG's
// own instance offsets in the middle (one out-edge per instance, nothing to
// materialise), and a dense reshape+reduce at the schema level under the HA
// strategy. The distributed runtime transparently intercepts the bottom
// level.
func (c *Context) Aggregate(feats *nn.Value, udfs ...LevelUDF) *nn.Value {
	if c.HDG == nil {
		if len(udfs) != 1 {
			panic(fmt.Sprintf("nau: DNFA aggregation takes exactly 1 level UDF, got %d", len(udfs)))
		}
		return c.AggregateBottom(c.GraphAdjacency(), feats, udfs[0].Op)
	}
	if c.HDG.IsFlat() {
		if len(udfs) != 1 {
			panic(fmt.Sprintf("nau: flat HDG aggregation takes exactly 1 level UDF, got %d", len(udfs)))
		}
		return c.AggregateBottom(c.FlatAdjacency(), feats, udfs[0].Op)
	}
	if len(udfs) != 3 {
		panic(fmt.Sprintf("nau: hierarchical HDG aggregation takes exactly 3 level UDFs, got %d", len(udfs)))
	}
	inst := c.AggregateBottom(c.BottomAdjacency(), feats, udfs[0].Op)
	var slots *nn.Value
	if udfs[1].Attention != nil {
		slots = c.Engine.Attention(c.HDG, inst, udfs[1].Attention)
	} else {
		slots = c.Engine.AggregateIntermediate(c.HDG, inst, udfs[1].Op)
	}
	return c.Engine.AggregateSchema(c.HDG, slots, udfs[2].Op)
}
