package main

import (
	"time"
)

// perLayerUnits names the metrics of a traced run. A layer the
// workload never crosses reports 0.
var perLayerUnits = map[string]string{
	"core.call_us.p50":                "us",
	"core.call_us.p99":                "us",
	"core.request_leg_us.p50":         "us",
	"core.request_leg_us.p99":         "us",
	"core.exec_us.p50":                "us",
	"core.exec_us.p99":                "us",
	"core.reply_leg_us.p50":           "us",
	"core.reply_leg_us.p99":           "us",
	"core.execs_per_op":               "count",
	"core.dup_execs":                  "count",
	"core.resilient_retries":          "count",
	"core.suspicions":                 "count",
	"core.rebinds":                    "count",
	"collate.wait_us.p50":             "us",
	"collate.wait_us.p99":             "us",
	"pairedmsg.segments_per_op":       "count",
	"pairedmsg.acks_per_op":           "count",
	"pairedmsg.ack_piggyback_frac":    "frac",
	"pairedmsg.frames_per_bundle":     "count",
	"pairedmsg.retransmits_per_op":    "count",
	"pairedmsg.probes_per_op":         "count",
	"pairedmsg.dup_segments_per_op":   "count",
	"pairedmsg.delivery_drops_per_op": "count",
	"transport.datagrams_per_op":      "count",
	"transport.sendops_per_op":        "count",
	"transport.drops_per_op":          "count",
	"mesh.read_us.p50":                "us",
	"mesh.read_us.p99":                "us",
	"mesh.write_us.p50":               "us",
	"mesh.write_us.p99":               "us",
	"mesh.guard_us.p50":               "us",
	"mesh.guard_us.p99":               "us",
	"mesh.spread_served_frac":         "frac",
	"mesh.stale_bounces_per_read":     "count",
	"mesh.escalations_per_read":       "count",
	"mesh.hot_widenings":              "count",
	"mesh.redirects_per_op":           "count",
	"mesh.refreshes":                  "count",
	"mesh.stale_serves":               "count",
	"ringmaster.bind_ms":              "ms",
	"ringmaster.bootstrap_ms":         "ms",
	"ringmaster.join_ms":              "ms",
	"wal.append_us.p50":               "us",
	"wal.append_us.p99":               "us",
	"wal.fsync_us.p50":                "us",
	"wal.fsync_us.p99":                "us",
	"wal.fsyncs_per_op":               "count",
	"wal.appends_per_fsync":           "count",
	"wal.snapshot_ms":                 "ms",
	"wal.snapshots":                   "count",
	"wal.write_amp":                   "ratio",
	"wire.marshal_us.p50":             "us",
	"wire.marshal_us.p99":             "us",
	"wire.unmarshal_us.p50":           "us",
	"wire.unmarshal_us.p99":           "us",
	"runtime.allocs_per_op":           "count",
	"runtime.alloc_bytes_per_op":      "B",
	"runtime.gc_cpu_frac":             "frac",
	"runtime.goroutines_max":          "count",
	"bench.gen_late_p99_ms":           "ms",
	"bench.host_steal_frac":           "frac",
	"bench.trace_overhead_frac":       "frac",
	"fail_frac":                       "frac",
	"outage_ms":                       "ms",
}

// layerMetrics derives the per-layer metrics of one traced phase from
// its summary, its spans, the process samples around it and the
// layers' counter deltas over it.
func layerMetrics(m map[string]float64, s summary, spans []span, pa, pb procSample, d map[string]float64) {
	ops := float64(s.attempted)
	dist := map[string][]float64{}
	put := func(name string, v time.Duration) { dist[name] = append(dist[name], us(v)) }

	// Self time: a span's duration less what its children cover.
	byID := make(map[int]*span, len(spans))
	childTime := map[int]time.Duration{}
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for _, sp := range spans {
		if p, ok := byID[sp.Parent]; ok && p.Member == sp.Member {
			childTime[sp.Parent] += sp.dur()
		}
	}

	type callInfo struct {
		call  *span
		execs []*span
	}
	calls := map[uint64]*callInfo{}
	get := func(rid uint64) *callInfo {
		ci := calls[rid]
		if ci == nil {
			ci = &callInfo{}
			calls[rid] = ci
		}
		return ci
	}
	execs := 0
	for i := range spans {
		sp := &spans[i]
		switch sp.Name {
		case "core.call", "mesh.read", "mesh.write":
			if sp.Name == "core.call" {
				put("core.call_us", sp.dur())
			} else {
				put(sp.Name+"_us", sp.dur())
			}
			if sp.RID != 0 {
				get(sp.RID).call = sp
			}
		case "core.exec":
			put("core.exec_us", sp.dur()-childTime[sp.ID])
			if sp.RID != 0 {
				execs++
				ci := get(sp.RID)
				ci.execs = append(ci.execs, sp)
			}
		case "mesh.guard":
			put("mesh.guard_us", sp.dur()-childTime[sp.ID])
		case "wal.append", "wal.fsync", "wire.marshal", "wire.unmarshal":
			put(sp.Name+"_us", sp.dur())
		case "wal.snapshot", "ringmaster.bind", "ringmaster.bootstrap", "ringmaster.join":
			dist[sp.Name+"_ms"] = append(dist[sp.Name+"_ms"], ms(sp.dur()))
		}
	}
	for _, ci := range calls {
		if ci.call == nil || len(ci.execs) == 0 {
			continue
		}
		first, last := ci.execs[0], ci.execs[0]
		firstEnd := ci.execs[0].End
		for _, x := range ci.execs {
			if x.Start < first.Start {
				first = x
			}
			if x.End > last.End {
				last = x
			}
			firstEnd = min(firstEnd, x.End)
		}
		put("core.request_leg_us", time.Duration(first.Start-ci.call.Start))
		put("core.reply_leg_us", time.Duration(ci.call.End-last.End))
		if len(ci.execs) > 1 {
			put("collate.wait_us", time.Duration(last.End-firstEnd))
		}
	}
	for _, name := range []string{"core.call_us", "core.request_leg_us", "core.exec_us",
		"core.reply_leg_us", "collate.wait_us", "mesh.read_us", "mesh.write_us", "mesh.guard_us",
		"wal.append_us", "wal.fsync_us", "wire.marshal_us", "wire.unmarshal_us"} {
		m[name+".p50"] = quantile(dist[name], 0.5)
		m[name+".p99"] = quantile(dist[name], 0.99)
	}
	for _, name := range []string{"wal.snapshot_ms", "ringmaster.bind_ms", "ringmaster.bootstrap_ms", "ringmaster.join_ms"} {
		m[name] = median(dist[name])
	}
	m["core.execs_per_op"] = ratio(float64(execs), ops)
	m["core.resilient_retries"] = d["res.retries"]
	m["core.suspicions"] = d["res.suspected"]
	m["core.rebinds"] = d["res.rebinds"]

	m["pairedmsg.segments_per_op"] = ratio(d["pm.segments"], ops)
	m["pairedmsg.acks_per_op"] = ratio(d["pm.acks"], ops)
	m["pairedmsg.ack_piggyback_frac"] = ratio(d["pm.acks_piggybacked"], d["pm.acks"])
	m["pairedmsg.frames_per_bundle"] = ratio(d["pm.bundled_frames"], d["pm.bundles"])
	m["pairedmsg.retransmits_per_op"] = ratio(d["pm.retransmits"], ops)
	m["pairedmsg.probes_per_op"] = ratio(d["pm.probes"], ops)
	m["pairedmsg.dup_segments_per_op"] = ratio(d["pm.dup_segments"], ops)
	m["pairedmsg.delivery_drops_per_op"] = ratio(d["pm.delivery_drops"], ops)

	if _, sim := d["sim.datagrams"]; sim {
		m["transport.datagrams_per_op"] = ratio(d["sim.datagrams"], ops)
		m["transport.sendops_per_op"] = ratio(d["sim.sendops"], ops)
		m["transport.drops_per_op"] = ratio(d["sim.dropped"], ops)
	} else {
		// The kernel counts datagrams and receive-buffer drops, not
		// send calls, so sendops reads 0 on UDP.
		m["transport.datagrams_per_op"] = ratio(pb.udpOut-pa.udpOut, ops)
		m["transport.drops_per_op"] = ratio(pb.udpRcvbufEr-pa.udpRcvbufEr, ops)
	}

	reads := d["mesh.reads"]
	m["mesh.spread_served_frac"] = ratio(d["mesh.spread_reads"], reads)
	m["mesh.stale_bounces_per_read"] = ratio(d["mesh.stale_bounces"], reads)
	m["mesh.escalations_per_read"] = ratio(d["mesh.escalations"], reads)
	m["mesh.hot_widenings"] = d["mesh.hot_widenings"]
	m["mesh.redirects_per_op"] = ratio(d["mesh.redirects"], ops)
	m["mesh.refreshes"] = d["mesh.refreshes"]
	m["mesh.stale_serves"] = d["mesh.stale_serves"]

	m["wal.fsyncs_per_op"] = ratio(d["wal.fsyncs"], ops)
	m["wal.appends_per_fsync"] = ratio(d["wal.appends"], d["wal.fsyncs"])
	m["wal.snapshots"] = d["wal.snapshots"]
	m["wal.write_amp"] = ratio(d["wal.fs_bytes"], d["wal.user_bytes"])

	m["runtime.allocs_per_op"] = ratio(pb.mallocs-pa.mallocs, ops)
	m["runtime.alloc_bytes_per_op"] = ratio(pb.allocBytes-pa.allocBytes, ops)
	m["runtime.gc_cpu_frac"] = ratio(pb.gcCPU-pa.gcCPU, pb.totalCPU-pa.totalCPU)
	m["runtime.goroutines_max"] = d["runtime.goroutines_max"]
}
