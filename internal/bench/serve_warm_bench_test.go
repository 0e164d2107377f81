package bench

import (
	"testing"
)

// benchKernel runs one perf kernel under the standard benchmark driver,
// so a single path can be A/B compared in isolation without running the
// whole RunPerfSuite.
func benchKernel(b *testing.B, name string) {
	for _, k := range perfKernels() {
		if k.name != name {
			continue
		}
		body, err := k.setup()
		if err != nil {
			b.Fatalf("setup: %v", err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := body(); err != nil {
				b.Fatalf("kernel body: %v", err)
			}
		}
		return
	}
	b.Fatalf("%s kernel not found", name)
}

// BenchmarkServeSweepWarm is the warm serving sweep (the BENCH_10.json
// overhead check).
func BenchmarkServeSweepWarm(b *testing.B) { benchKernel(b, "ServeSweepWarm") }

// BenchmarkPeerEnvelopeRoundTrip is one peer fill's serialization.
func BenchmarkPeerEnvelopeRoundTrip(b *testing.B) { benchKernel(b, "PeerEnvelopeRoundTrip") }

// BenchmarkColdBuild times Instance.Build for each family's largest
// cold-solve shape, and one whole cold mvm(16,32) answer.
func BenchmarkColdBuild(b *testing.B) {
	for _, name := range []string{"ColdBuildDWT", "ColdBuildKTree", "ColdBuildMVM", "ColdSolveMVM"} {
		b.Run(name, func(b *testing.B) { benchKernel(b, name) })
	}
}
