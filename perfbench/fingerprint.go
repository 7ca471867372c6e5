package main

import (
	_ "embed"
	"encoding/json"
	"fmt"

	"memsim/internal/sim"
)

// fingerprint is the simulated outcome of one run. A change that only
// speeds up the simulator must leave it bit for bit the same, so the
// benchmark compares it exactly rather than reporting it as a metric.
type fingerprint struct {
	Completed    int     `json:"completed"`
	Failed       int     `json:"failed"`
	ResponseMean float64 `json:"response_mean_ms"`
	ResponseCV2  float64 `json:"response_cv2"`
	ServiceMean  float64 `json:"service_mean_ms"`
	Busy         float64 `json:"busy_ms"`
	Elapsed      float64 `json:"elapsed_ms"`
	MaxQueue     int     `json:"max_queue"`
	QueueMean    float64 `json:"queue_mean"`
	PhaseP99     float64 `json:"service_p99_ms"`

	// Volume regime only.
	MTTR          float64 `json:"mttr_ms,omitempty"`
	RebuildChunks int     `json:"rebuild_chunks,omitempty"`
	DegradedReads int     `json:"degraded_reads,omitempty"`
	HealthyP95    float64 `json:"healthy_p95_ms,omitempty"`
	DegradedP95   float64 `json:"degraded_p95_ms,omitempty"`
}

func fingerprintOf(res *sim.Result) fingerprint {
	fp := fingerprint{
		Completed:    res.Requests,
		Failed:       res.FailedRequests,
		ResponseMean: res.Response.Mean(),
		ResponseCV2:  res.Response.SquaredCV(),
		ServiceMean:  res.Service.Mean(),
		Busy:         res.Busy,
		Elapsed:      res.Elapsed,
		MaxQueue:     res.MaxQueue,
		QueueMean:    res.QueueLen.Mean(),
	}
	if res.Phases != nil {
		fp.PhaseP99 = res.Phases.Service.P99()
	}
	if v := res.Volume; v != nil {
		fp.MTTR = v.RebuildMs
		fp.RebuildChunks = v.RebuildChunks
		fp.DegradedReads = v.DegradedReads
		fp.HealthyP95 = v.Healthy.P95()
		fp.DegradedP95 = v.Degraded.P95()
	}
	return fp
}

func (fp fingerprint) String() string {
	type plain fingerprint // drops the String method
	b, err := json.Marshal(fp)
	if err != nil {
		return fmt.Sprintf("%+v", plain(fp))
	}
	return string(b)
}

// goldenSeed is the seed the pinned fingerprints were taken at.
const goldenSeed = 1

// golden.json pins each workload's fingerprint at goldenSeed. A change
// that alters the modelled devices or policies alters them on purpose;
// re-pin it from the "got" fingerprint the benchmark prints.
//
//go:embed golden.json
var goldenJSON []byte

func goldenFingerprint(workload string) (fingerprint, bool, error) {
	var all map[string]fingerprint
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return fingerprint{}, false, fmt.Errorf("golden.json: %w", err)
	}
	fp, ok := all[workload]
	return fp, ok, nil
}

// check reports whether a run's outcome is acceptable for its workload:
// every request completed without failure and, for the volume regime,
// the killed member was rebuilt in full.
func (s spec) check(res *sim.Result) error {
	switch {
	case res.Cancelled:
		return fmt.Errorf("run cancelled")
	case res.Requests != s.count || res.FailedRequests != 0:
		return fmt.Errorf("%d of %d requests completed, %d failed", res.Requests, s.count, res.FailedRequests)
	case res.DataLoss:
		return fmt.Errorf("data loss")
	}
	if s.regime == volumeRegime {
		v := res.Volume
		want := volPerMember / volChunk
		if v == nil || v.DeviceFailures != 1 || v.RebuildsDone != 1 || v.RebuildChunks != want {
			return fmt.Errorf("rebuild incomplete: %+v", v)
		}
	}
	return nil
}
