package partition_test

import (
	"testing"

	"sunfloor3d/internal/bench"
	"sunfloor3d/internal/graph"
	"sunfloor3d/internal/partition"
)

// partitionSink keeps the benchmarked partitions live.
var partitionSink []int

// BenchmarkPartitionK partitions D_65_pipe's PG and its theta=13 SPG (the
// last value of the paper's theta sweep, where every same-layer pair is
// joined) for every block count 1..65. "fresh" builds the graph's
// Partitioner for every call, as PartitionCores does; "shared" builds it
// once per graph and partitions it for every block count, as the synthesis
// engine's partition cache does.
//
//	go test -run='^$' -bench=PartitionK -benchmem ./internal/partition
func BenchmarkPartitionK(b *testing.B) {
	d := bench.D65Pipe(1).Graph3D
	par := partition.DefaultParams()
	pg := partition.BuildPG(d, par.Alpha)
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"pg", pg}, {"spg13", partition.BuildSPGFrom(pg, d, 13, par.ThetaMax)}} {
		n := c.g.NumVertices()
		b.Run(c.name+"/fresh", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k := 1; k <= n; k++ {
					partitionSink = partition.PartitionCores(c.g, k)
				}
			}
		})
		b.Run(c.name+"/shared", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := graph.NewPartitioner(c.g)
				for k := 1; k <= n; k++ {
					partitionSink = p.PartitionK(k)
				}
			}
		})
	}
}
