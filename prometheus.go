package distwalk

import (
	"net/http"

	"distwalk/internal/metrics"
)

// MetricsHandler returns an http.Handler that serves the service's
// counters in the Prometheus text exposition format (version 0.0.4),
// the scrape-ready counterpart of the JSON StatsHandler:
//
//	mux.Handle("/metrics", svc.MetricsHandler())
//
// Every series is a ServiceStats field, named by the field's metric tag
// (see internal/metrics); its # HELP line is the Go field path. Counters
// are cumulative since service start; gauges (generation, cache bytes,
// engine health) are instantaneous.
func (s *Service) MetricsHandler() http.Handler {
	return metrics.Handler(func() any { return s.Stats() })
}
