package models

import "repro/internal/nn"

// ForServing constructors: each model factory paired with a forward-only
// nn.InferNet (the forward-only StrategyNet on one rank) sized for the
// serving subsystem's micro-batcher.
// maxBatch is the largest batch the replica's preallocated activation
// buffers accept — internal/serve flushes at or below it. Weights start
// initialized; restore a trained checkpoint with nn.LoadState into
// Params()/Buffers().

// ForServing wraps any architecture in a forward-only inference engine.
func ForServing(arch *nn.Arch, maxBatch int) (*nn.InferNet, error) {
	return nn.NewInferNet(arch, maxBatch)
}

// ResNet50TinyForServing builds a forward-only reduced-ResNet replica, the
// serving-test and example workhorse.
func ResNet50TinyForServing(inputSize, classes, maxBatch int) (*nn.InferNet, error) {
	return ForServing(ResNet50Tiny(inputSize, classes), maxBatch)
}

// MeshTinyForServing builds a forward-only scaled-down mesh replica.
func MeshTinyForServing(size, maxBatch int) (*nn.InferNet, error) {
	return ForServing(MeshTiny(size), maxBatch)
}

// SmallCNNForServing builds a forward-only quickstart classifier replica.
func SmallCNNForServing(size, channels, classes, maxBatch int) (*nn.InferNet, error) {
	return ForServing(SmallCNN(size, channels, classes), maxBatch)
}
