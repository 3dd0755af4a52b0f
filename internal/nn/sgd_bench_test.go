package nn_test

import (
	"testing"

	"repro/internal/models"
	"repro/internal/nn"
)

// BenchmarkSGDStep times one replicated update of ResNet50Tiny's 53
// parameter tensors (8.0 M words, the resnet_sample model) and reports the
// cost per parameter element.
func BenchmarkSGDStep(b *testing.B) {
	net, err := nn.NewSeqNet(models.ResNet50Tiny(16, 10), 1)
	if err != nil {
		b.Fatal(err)
	}
	ps := net.Params()
	words := 0
	for _, p := range ps {
		words += len(p.W)
	}
	opt := nn.NewSGD(0.01, 0.9, 1e-4)
	opt.Step(ps) // allocates the velocity
	b.SetBytes(int64(4 * words))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(ps)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(words), "ns/element")
}
