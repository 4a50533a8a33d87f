package main

import "fmt"

// layerMetrics lists every per-layer metric a traced run reports, with its
// unit. A workload that does not exercise a layer reports 0 for it.
var layerMetrics = func() [][2]string {
	m := [][2]string{
		{"loadgen.lag_p99_ms", "ms"},
		{"loadgen.new_conns_after_warmup", "count"},
		{"service.handler_ms_mean", "ms"},
		{"service.wire_ms_mean", "ms"},
		{"service.queue_wait_ms_mean", "ms"},
		{"service.batch_size_mean", "jobs"},
		{"service.respcache_hit_ratio", "ratio"},
		{"service.instance_cache_hit_ratio", "ratio"},
		{"service.engine_pool_hit_ratio", "ratio"},
		{"service.shed_total", "count"},
		{"service.response_bytes_mean", "bytes"},
		{"tenant.throttled_total", "count"},
		{"tenant.auth_us", "us"},
		{"tenant.allow_us", "us"},
		{"graphgen.generate_ms", "ms"},
		{"oracle.advise_ms", "ms"},
		{"sim.run_ms", "ms"},
		{"sim.ns_per_message", "ns"},
		{"catalog.check_us", "us"},
		{"core.execute_share", "ratio"},
		{"campaign.unit_ms", "ms"},
		{"cluster.shards", "count"},
		{"cluster.shard_units_median", "units"},
		{"cluster.dispatch_rtt_ms_p50", "ms"},
		{"cluster.dispatch_rtt_ms_p99", "ms"},
		{"cluster.overhead_ms_per_shard", "ms"},
		{"cluster.worker_busy_ratio", "ratio"},
		{"cluster.useful_dispatch_ratio", "ratio"},
		{"warehouse.deposit_us_p50", "us"},
		{"warehouse.deposit_us_p99", "us"},
		{"warehouse.compactions", "count"},
		{"warehouse.bytes_per_record", "bytes"},
		{"warehouse.close_ms", "ms"},
		{"runtime.alloc_bytes_per_unit", "bytes"},
		{"trace.overhead_p50_ms", "ms"},
		{"trace.overhead_rps", "1/s"},
		{"trace.client_ms_mean", "ms"},
		{"trace.unattributed_ms", "ms"},
	}
	for _, name := range spanNames {
		m = append(m, [2]string{fmt.Sprintf("span.%s.self_ms", name), "ms"})
	}
	return m
}()

// fillLayers sets every per-layer metric the workload did not measure to
// 0, and every unit to the table's.
func fillLayers(m metricSet) {
	for _, lm := range layerMetrics {
		m.set(lm[0], m[lm[0]].Value, lm[1])
	}
}
