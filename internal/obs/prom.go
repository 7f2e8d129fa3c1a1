// Prometheus text-format exposition of the Recorder's aggregates plus
// the live cluster gauges. The format follows the 0.0.4 text exposition
// spec (the one every Prometheus scraper accepts): HELP/TYPE headers,
// cumulative histogram buckets with le labels, _sum and _count series.
// Rendering happens only at scrape time, so it favours clarity over
// allocation-freedom.

package obs

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
)

// LevelStat is the scrape-time state of one runtime level.
type LevelStat struct {
	// Level is the runtime level index (increasing max_length).
	Level int
	// MaxLength is the runtime's padded sequence length.
	MaxLength int
	// Instances is how many instances are deployed at the level.
	Instances int
	// Depth is the level's queue depth: outstanding (dispatched but not
	// completed) requests summed across the level's instances.
	Depth int
	// BatchCap is B_i, the level's SLO-clamped dynamic-batching cap (0
	// when batching is disabled).
	BatchCap int
	// Capacity is the sum of M_i over the level's serving instances (a
	// crashed instance awaiting rejoin adds nothing).
	Capacity int
}

// InstanceStat is the scrape-time state of one instance.
type InstanceStat struct {
	ID          int
	Runtime     int
	Outstanding int
	// Capacity is M_i, the instance's SLO-feasible queue bound.
	Capacity int
	// Health is the instance's serving state; failed instances appear
	// here as Dead until their downtime elapses and they rejoin.
	Health Health
	// SlowFactor is the degraded-mode execution multiplier (1 when
	// healthy, 0 when dead).
	SlowFactor float64
}

// TenantStat is the scrape-time admission/dispatch accounting of one
// tenant (multi-tenant clusters only).
type TenantStat struct {
	// Tenant is the tenant id (a metric label value).
	Tenant string
	// Admitted and Rejected count token-bucket admission decisions.
	Admitted int64
	Rejected int64
	// Share is the tenant's fraction of cumulative dispatched token cost.
	Share float64
}

// Snapshot is the live cluster state at one moment: what the gauges
// render, /healthz and the load report serve, and the control loop reads.
type Snapshot struct {
	Levels []LevelStat
	// Instances is sorted by ID and includes crashed instances (as Dead)
	// until they rejoin.
	Instances []InstanceStat
	// Tenants is empty when the cluster runs without a tenant registry.
	Tenants []TenantStat
}

// HealthSummary is a snapshot's per-state instance counts, the shape the
// /healthz endpoint serves.
type HealthSummary struct {
	Healthy  int `json:"healthy"`
	Degraded int `json:"degraded"`
	Dead     int `json:"dead"`
}

// Health counts the snapshot's instances by serving state.
func (s Snapshot) Health() HealthSummary {
	var h HealthSummary
	for _, in := range s.Instances {
		switch in.Health {
		case Healthy:
			h.Healthy++
		case Degraded:
			h.Degraded++
		default:
			h.Dead++
		}
	}
	return h
}

// ContentType is the Prometheus text exposition content type served by
// Handler.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every metric in Prometheus text format.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "# HELP arlo_requests_submitted_total Requests submitted to the cluster.\n")
	fmt.Fprint(bw, "# TYPE arlo_requests_submitted_total counter\n")
	fmt.Fprintf(bw, "arlo_requests_submitted_total %d\n", r.submitted.Load())

	fmt.Fprint(bw, "# HELP arlo_requests_completed_total Requests completed by the cluster.\n")
	fmt.Fprint(bw, "# TYPE arlo_requests_completed_total counter\n")
	fmt.Fprintf(bw, "arlo_requests_completed_total %d\n", r.completed.Load())

	fmt.Fprint(bw, "# HELP arlo_requests_cancelled_total Requests cancelled by their context while queued or executing.\n")
	fmt.Fprint(bw, "# TYPE arlo_requests_cancelled_total counter\n")
	fmt.Fprintf(bw, "arlo_requests_cancelled_total %d\n", r.cancelled.Load())

	fmt.Fprint(bw, "# HELP arlo_requests_rejected_total Submissions refused, by reason.\n")
	fmt.Fprint(bw, "# TYPE arlo_requests_rejected_total counter\n")
	for reason := RejectReason(0); reason < numRejectReasons; reason++ {
		fmt.Fprintf(bw, "arlo_requests_rejected_total{reason=%q} %d\n",
			reason.String(), r.rejected[reason].Load())
	}

	fmt.Fprint(bw, "# HELP arlo_requests_in_flight Requests submitted and not yet completed, cancelled or rejected.\n")
	fmt.Fprint(bw, "# TYPE arlo_requests_in_flight gauge\n")
	fmt.Fprintf(bw, "arlo_requests_in_flight %d\n", r.InFlight())

	fmt.Fprint(bw, "# HELP arlo_requeues_total Requests displaced by instance failures and re-dispatched, by displacement point.\n")
	fmt.Fprint(bw, "# TYPE arlo_requeues_total counter\n")
	for reason := RequeueReason(0); reason < numRequeueReasons; reason++ {
		fmt.Fprintf(bw, "arlo_requeues_total{reason=%q} %d\n",
			reason.String(), r.requeues[reason].Load())
	}

	fmt.Fprint(bw, "# HELP arlo_demotions_total Algorithm 1 demotions by (ideal, chosen) runtime-level pair.\n")
	fmt.Fprint(bw, "# TYPE arlo_demotions_total counter\n")
	for from := 0; from < r.levels; from++ {
		for to := 0; to < r.levels; to++ {
			if n := r.demotions[from*r.levels+to].Load(); n != 0 {
				fmt.Fprintf(bw, "arlo_demotions_total{from=\"%d\",to=\"%d\"} %d\n", from, to, n)
			}
		}
	}

	if fnp := r.snapshot.Load(); fnp != nil {
		snap := (*fnp)()
		fmt.Fprint(bw, "# HELP arlo_queue_depth Outstanding requests per runtime level.\n")
		fmt.Fprint(bw, "# TYPE arlo_queue_depth gauge\n")
		for _, l := range snap.Levels {
			fmt.Fprintf(bw, "arlo_queue_depth{level=\"%d\",max_length=\"%d\"} %d\n",
				l.Level, l.MaxLength, l.Depth)
		}
		fmt.Fprint(bw, "# HELP arlo_level_instances Deployed instances per runtime level.\n")
		fmt.Fprint(bw, "# TYPE arlo_level_instances gauge\n")
		for _, l := range snap.Levels {
			fmt.Fprintf(bw, "arlo_level_instances{level=\"%d\",max_length=\"%d\"} %d\n",
				l.Level, l.MaxLength, l.Instances)
		}
		fmt.Fprint(bw, "# HELP arlo_instance_outstanding Outstanding requests per instance.\n")
		fmt.Fprint(bw, "# TYPE arlo_instance_outstanding gauge\n")
		for _, in := range snap.Instances {
			fmt.Fprintf(bw, "arlo_instance_outstanding{instance=\"%d\",runtime=\"%d\"} %d\n",
				in.ID, in.Runtime, in.Outstanding)
		}
		fmt.Fprint(bw, "# HELP arlo_instance_health Instance serving state: 2 healthy, 1 degraded (slowed execution), 0 dead (crashed, awaiting rejoin).\n")
		fmt.Fprint(bw, "# TYPE arlo_instance_health gauge\n")
		for _, in := range snap.Instances {
			fmt.Fprintf(bw, "arlo_instance_health{instance=\"%d\",runtime=\"%d\",state=%q} %d\n",
				in.ID, in.Runtime, in.Health.String(), in.Health.GaugeValue())
		}
		fmt.Fprint(bw, "# HELP arlo_instance_utilization Outstanding / SLO-feasible capacity per instance.\n")
		fmt.Fprint(bw, "# TYPE arlo_instance_utilization gauge\n")
		for _, in := range snap.Instances {
			util := 1.0
			if in.Capacity > 0 {
				util = float64(in.Outstanding) / float64(in.Capacity)
			}
			fmt.Fprintf(bw, "arlo_instance_utilization{instance=\"%d\",runtime=\"%d\"} %g\n",
				in.ID, in.Runtime, util)
		}
		if len(snap.Tenants) > 0 {
			fmt.Fprint(bw, "# HELP arlo_admission_total Token-bucket admission decisions per tenant.\n")
			fmt.Fprint(bw, "# TYPE arlo_admission_total counter\n")
			for _, t := range snap.Tenants {
				fmt.Fprintf(bw, "arlo_admission_total{tenant=%q,decision=\"admitted\"} %d\n", t.Tenant, t.Admitted)
				fmt.Fprintf(bw, "arlo_admission_total{tenant=%q,decision=\"rejected\"} %d\n", t.Tenant, t.Rejected)
			}
			fmt.Fprint(bw, "# HELP arlo_tenant_queue_share Tenant share of the cumulative token cost placed on workers; admitted requests place inline in arrival order.\n")
			fmt.Fprint(bw, "# TYPE arlo_tenant_queue_share gauge\n")
			for _, t := range snap.Tenants {
				fmt.Fprintf(bw, "arlo_tenant_queue_share{tenant=%q} %g\n", t.Tenant, t.Share)
			}
		}
		batchingOn := false
		for _, l := range snap.Levels {
			if l.BatchCap > 0 {
				batchingOn = true
				break
			}
		}
		if batchingOn {
			fmt.Fprint(bw, "# HELP arlo_batch_occupancy Mean batch size / profiled cap B_i per runtime level.\n")
			fmt.Fprint(bw, "# TYPE arlo_batch_occupancy gauge\n")
			for _, l := range snap.Levels {
				if l.BatchCap <= 0 {
					continue
				}
				fmt.Fprintf(bw, "arlo_batch_occupancy{level=\"%d\",max_length=\"%d\",cap=\"%d\"} %g\n",
					l.Level, l.MaxLength, l.BatchCap, r.MeanBatchSize(l.Level)/float64(l.BatchCap))
			}
		}
	}

	if fnp := r.ctrlStats.Load(); fnp != nil {
		cs := (*fnp)()
		fmt.Fprint(bw, "# HELP arlo_controller_replans_total Control periods that re-solved the allocation program.\n")
		fmt.Fprint(bw, "# TYPE arlo_controller_replans_total counter\n")
		fmt.Fprintf(bw, "arlo_controller_replans_total %d\n", cs.Replans)
		fmt.Fprint(bw, "# HELP arlo_controller_plans_held_total Replans whose replacement plan was suppressed by hysteresis.\n")
		fmt.Fprint(bw, "# TYPE arlo_controller_plans_held_total counter\n")
		fmt.Fprintf(bw, "arlo_controller_plans_held_total %d\n", cs.PlansHeld)
		fmt.Fprint(bw, "# HELP arlo_controller_replacements_total Instance replacements applied by the control loop.\n")
		fmt.Fprint(bw, "# TYPE arlo_controller_replacements_total counter\n")
		fmt.Fprintf(bw, "arlo_controller_replacements_total %d\n", cs.Replacements)
		fmt.Fprint(bw, "# HELP arlo_controller_scale_total Autoscaler GPU count changes, by direction.\n")
		fmt.Fprint(bw, "# TYPE arlo_controller_scale_total counter\n")
		fmt.Fprintf(bw, "arlo_controller_scale_total{direction=\"out\"} %d\n", cs.ScaleOuts)
		fmt.Fprintf(bw, "arlo_controller_scale_total{direction=\"in\"} %d\n", cs.ScaleIns)
		fmt.Fprint(bw, "# HELP arlo_controller_gpus Live GPU count the controller manages.\n")
		fmt.Fprint(bw, "# TYPE arlo_controller_gpus gauge\n")
		fmt.Fprintf(bw, "arlo_controller_gpus %d\n", cs.GPUs)
		fmt.Fprint(bw, "# HELP arlo_controller_dry_run 1 when the controller observes and plans without applying.\n")
		fmt.Fprint(bw, "# TYPE arlo_controller_dry_run gauge\n")
		dry := 0
		if cs.DryRun {
			dry = 1
		}
		fmt.Fprintf(bw, "arlo_controller_dry_run %d\n", dry)
	}

	fmt.Fprint(bw, "# HELP arlo_batch_size Members per executed dynamic batch.\n")
	fmt.Fprint(bw, "# TYPE arlo_batch_size histogram\n")
	var cumBatch int64
	for b := 0; b < numBatchBuckets; b++ {
		cumBatch += r.batchSizeB[b].Load()
		fmt.Fprintf(bw, "arlo_batch_size_bucket{le=\"%d\"} %d\n", batchBucketLE(b), cumBatch)
	}
	cumBatch += r.batchSizeB[numBatchBuckets].Load()
	fmt.Fprintf(bw, "arlo_batch_size_bucket{le=\"+Inf\"} %d\n", cumBatch)
	fmt.Fprintf(bw, "arlo_batch_size_sum %d\n", r.batchedReqs.Load())
	fmt.Fprintf(bw, "arlo_batch_size_count %d\n", r.batches.Load())

	writeHist(bw, "arlo_request_queue_seconds", "Queueing delay from dispatch to execution start.", &r.queueH)
	writeHist(bw, "arlo_request_exec_seconds", "Emulated execution time.", &r.execH)
	writeHist(bw, "arlo_request_latency_seconds", "End-to-end modeled request latency.", &r.totalH)
	writeHist(bw, "arlo_batch_form_wait_seconds", "Time batched requests spent in batch formation.", &r.formWaitH)
	writeHist(bw, "arlo_ingress_wait_seconds", "Wall time requests spent in the ingress submit ring before group dispatch.", &r.ingressWaitH)
	writeHist(bw, "arlo_ttft_seconds", "Time to first generated token (generative requests only).", &r.ttftH)
	writeHist(bw, "arlo_tpot_seconds", "Mean time per output token after the first (generative requests only).", &r.tpotH)

	return bw.Flush()
}

func writeHist(w io.Writer, name, help string, h *hist) {
	cum, count, sumSec := h.snapshot()
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	for b := 0; b < numBuckets; b++ {
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, bucketLE(b), cum[b])
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum[bucketInf])
	fmt.Fprintf(w, "%s_sum %g\n", name, sumSec)
	fmt.Fprintf(w, "%s_count %d\n", name, count)
}

// Handler returns the GET /metrics endpoint serving the Prometheus text
// exposition.
func (r *Recorder) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			http.Error(w, "GET required", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		_ = r.WritePrometheus(w)
	})
}
