package workload

import (
	"fmt"
	"time"

	cb "cloudburst"
	"cloudburst/internal/codec"
)

// PredServe is the §6.3.1 prediction-serving pipeline: resize an input
// image, run a MobileNet-like model over an 8MB weights blob, and
// combine features into a prediction. TensorFlow inference is simulated
// as calibrated compute occupancy (the paper's pipeline totals ~210ms in
// native Python on CPU); the weights blob is real KVS state fetched
// through the cache, exercising the data-locality path.
type PredServe struct {
	ModelTime  time.Duration
	ModelBytes int
}

// The pipeline's fixed stages: the resize and combine stages' compute
// and the size of the inline input image.
const (
	ResizeTime  = 25 * time.Millisecond
	CombineTime = 20 * time.Millisecond
	ImageBytes  = 200 << 10
)

// DefaultPredServe returns the calibrated pipeline.
func DefaultPredServe() PredServe {
	return PredServe{ModelTime: 160 * time.Millisecond, ModelBytes: 8 << 20}
}

// ComputeTotal is the pure-compute floor of one prediction.
func (p PredServe) ComputeTotal() time.Duration {
	return ResizeTime + p.ModelTime + CombineTime
}

// ModelKey is where the weights blob lives in the KVS.
const ModelKey = "model/mobilenet-v1"

// Preload stores the model weights in Anna, encapsulated for the
// cluster's consistency mode.
func (p PredServe) Preload(c *cb.Cluster) {
	preload(c, ModelKey, 1, nil, codec.MustEncode(make([]byte, p.ModelBytes)))
}

// Register installs the three pipeline stages and the DAG. The model
// stage takes the weights as a KVS reference, so the scheduler's
// locality policy keeps routing it to executors whose cache already
// holds the 8MB blob.
func (p PredServe) Register(c *cb.Cluster, replicas int) error {
	if err := c.RegisterFunction("pred-resize", func(ctx *cb.Ctx, args []any) (any, error) {
		img, ok := args[0].([]byte)
		if !ok {
			return nil, fmt.Errorf("pred-resize: arg is %T", args[0])
		}
		ctx.Compute(ResizeTime)
		return img[:len(img)/4], nil // downsampled image
	}); err != nil {
		return err
	}
	if err := c.RegisterFunction("pred-model", func(ctx *cb.Ctx, args []any) (any, error) {
		weights, ok := args[0].([]byte)
		if !ok {
			return nil, fmt.Errorf("pred-model: weights arg is %T", args[0])
		}
		if len(weights) < p.ModelBytes {
			return nil, fmt.Errorf("pred-model: truncated weights (%d bytes)", len(weights))
		}
		ctx.Compute(p.ModelTime)
		return []float64{0.1, 0.7, 0.2}, nil // class scores
	}); err != nil {
		return err
	}
	if err := c.RegisterFunction("pred-combine", func(ctx *cb.Ctx, args []any) (any, error) {
		scores, ok := args[len(args)-1].([]float64)
		if !ok {
			return nil, fmt.Errorf("pred-combine: scores arg is %T", args[len(args)-1])
		}
		ctx.Compute(CombineTime)
		best, arg := -1.0, 0
		for i, s := range scores {
			if s > best {
				best, arg = s, i
			}
		}
		return arg, nil
	}); err != nil {
		return err
	}
	return c.RegisterDAG(cb.LinearDAG("predserve", "pred-resize", "pred-model", "pred-combine"), replicas)
}

// Args builds one request's DAG arguments: the inline image for the
// resize stage and the weights reference for the model stage.
func (p PredServe) Args() map[string][]any {
	return map[string][]any{
		"pred-resize": {make([]byte, ImageBytes)},
		"pred-model":  {cb.Ref(ModelKey)},
	}
}

// Predict runs one synchronous prediction.
func (p PredServe) Predict(cl *cb.Client) (int, error) {
	return cb.As[int](cl.InvokeDAG("predserve", p.Args()))
}
