package main

import (
	"fmt"
	"strings"

	"sunfloor3d/internal/memo"
)

// addMetrics adds every per-layer metric of a traced run. A layer the
// workload does not exercise reports zero work.
func (lt *layerTrace) addMetrics(rep *report) {
	totals := totalsByName(lt.tr.spans)
	// layer sums the self time (ms) and count of the spans whose name starts
	// with prefix.
	layer := func(prefix string) (ms, count float64) {
		for name, t := range totals {
			if strings.HasPrefix(name, prefix) {
				ms += float64(t.self) / 1e6
				count += float64(t.count)
			}
		}
		return ms, count
	}
	c := lt.counts
	perCall := fmt.Sprintf("over %d calls", lt.calls)

	rep.add("synth.attempts", "count", float64(c.attempts), perCall)
	rep.add("synth.attempts_per_point", "ratio", frac(float64(c.attempts), float64(c.retained)), fmt.Sprintf("%d retained points", c.retained))
	rep.add("synth.discarded_frac", "frac", frac(msOf(c.discarded), msOf(c.elapsed)), "share of attempt time spent on points not retained")
	rep.add("synth.outside_ms", "ms", msOf(lt.callWall-c.elapsed), "call wall time not inside any attempt")
	rep.add("synth.pruned_frac", "frac", frac(float64(c.pruned), float64(c.retained)), "")
	rep.add("synth.partition_cache_hit_frac", "frac", frac(float64(lt.cacheHits), float64(lt.cacheLookups)), fmt.Sprintf("%d lookups", lt.cacheLookups))
	allocMB := 0.0
	for _, a := range lt.allocMB {
		allocMB += a
	}
	rep.add("synth.alloc_mb", "MB", frac(allocMB, float64(len(lt.allocMB))), "bytes allocated per call")

	routeMS, _ := layer("route.")
	rep.add("route.calls", "count", float64(c.routeCalls), "")
	rep.add("route.ms", "ms", routeMS, "")
	rep.add("route.deadlock_retries", "count", float64(c.deadlockRetries), "")
	rep.add("route.indirect_switches", "count", float64(c.indirect), "")
	rep.add("route.fail_frac", "frac", frac(float64(c.routeFails), float64(c.routeCalls)), "")

	partMS, partN := layer("partition.")
	rep.add("partition.calls", "count", partN, "")
	rep.add("partition.ms", "ms", partMS, "")

	buildMS, _ := layer("topology.build")
	evalMS, evalN := layer("topology.Evaluate")
	rep.add("topology.build_ms", "ms", buildMS, "")
	rep.add("topology.eval_calls", "count", evalN, "")
	rep.add("topology.eval_ms", "ms", evalMS, "")

	lpMS, lpN := layer("place.OptimizeSwitchPositions")
	insertMS, _ := layer("place.InsertNoC")
	rep.add("place.lp_calls", "count", lpN, "")
	rep.add("place.lp_ms", "ms", lpMS, "")
	rep.add("place.insert_ms", "ms", insertMS, "")

	contendMS, contendN := layer("contend.")
	rep.add("contend.calls", "count", contendN, "")
	rep.add("contend.ms", "ms", contendMS, "")

	faultMS, faultN := layer("fault.")
	rep.add("fault.calls", "count", faultN, "")
	rep.add("fault.ms", "ms", faultMS, "BuildSparing plus Replay")
	rep.add("fault.plans", "count", float64(c.faultPlans), "")
	rep.add("fault.repaired_frac", "frac", frac(float64(c.faultRepaired), float64(c.faultPlans)), "")
	rep.add("fault.dead_frac", "frac", frac(float64(c.faultDead), float64(c.faultPlans)), "")

	simMS, simN := layer("sim.")
	rep.add("sim.calls", "count", simN, "")
	rep.add("sim.ms", "ms", simMS, "")
	rep.add("sim.cycles", "count", float64(c.simCycles), "")
	rep.add("sim.flits_per_s", "1/s", frac(float64(c.simFlits), simMS/1000), "delivered flits per host second")

	var st servePass
	var cs memo.Stats
	if lt.serve != nil {
		st, cs = *lt.serve, lt.serial.stats
	}
	lookups := float64(cs.MemHits + cs.DiskHits + cs.Misses + cs.Shared)
	rep.add("memo.mem_hit_frac", "frac", frac(float64(cs.MemHits), lookups), fmt.Sprintf("%g lookups of the one-client pass", lookups))
	rep.add("memo.disk_hit_frac", "frac", frac(float64(cs.DiskHits), lookups), "")
	rep.add("memo.miss_frac", "frac", frac(float64(cs.Misses), lookups), fmt.Sprintf("%d stores", cs.Stores))
	rep.add("memo.shared", "count", float64(st.stats.Shared), "of the timed pass: requests that joined an in-flight synthesis")
	rep.add("memo.disk_errors", "count", float64(cs.DiskErrors), "")
	rep.add("memo.corrupt_dropped", "count", float64(cs.CorruptDropped), "")
	rep.add("memo.mem_get_ms", "ms", lt.memGetMS, "median Lookup, memory tier, of the run's payloads")
	rep.add("memo.disk_get_ms", "ms", lt.diskGetMS, "median Lookup, disk tier")
	rep.add("memo.put_ms", "ms", lt.memPutMS, "median Put")

	warmP50, coldP50 := 0.0, 0.0
	tailMS, tailNote := 0.0, ""
	if len(st.lat) > 0 {
		warmP50, coldP50 = median0(st.warm), median0(st.cold)
		if p, v, ok := tailPercentile(st.lat); ok {
			tailMS, tailNote = v, fmt.Sprintf("p%g, n=%d", p, len(st.lat))
		} else {
			tailNote = fmt.Sprintf("n=%d is too few for a tail percentile", len(st.lat))
		}
	}
	rep.add("server.reject_frac", "frac", frac(float64(st.rejected), float64(len(st.lat))), "")
	rep.add("server.warm_overhead_ms", "ms", max(0, warmP50-lt.memGetMS), "warm_p50 minus memo.mem_get_ms")
	rep.add("server.req_tail_ms", "ms", tailMS, tailNote)
	rep.add("server.req_per_s", "1/s", frac(float64(len(st.lat)), st.wall.Seconds()), "")
	rep.add("server.warm_p50_ms", "ms", warmP50, fmt.Sprintf("n=%d memory or disk hits", len(st.warm)))
	rep.add("server.cold_p50_ms", "ms", coldP50, fmt.Sprintf("n=%d computed or shared", len(st.cold)))

	rep.add("facade.marshal_ms", "ms", median0(lt.marshalMS), "median MarshalStable per call")
	rep.add("facade.fingerprint_ms", "ms", median0(lt.fingerMS), "median Fingerprint per call")

	attemptSpans := float64(totals["synth.attempt"].dur) / 1e6
	rep.add("trace.overhead_frac", "frac", frac(lt.callback.Seconds(), lt.callWall.Seconds()), "progress-callback time against call wall time")
	rep.add("trace.coverage_frac", "frac", frac(attemptSpans, msOf(c.elapsed)), "replayed attempt time against the engine's")
}

// median0 is median with 0 for no samples.
func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
