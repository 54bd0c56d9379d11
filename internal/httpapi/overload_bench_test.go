package httpapi

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkOverloadShedding drives the server far past its admission
// capacity and measures the overload contract: a shed request must be
// near-free (a non-blocking semaphore probe, a queue probe, a JSON
// envelope) so refused load can't take the server down, while
// admitted requests evaluate normally. The custom metrics report the
// shed fraction and the mean cost of one shed.
func BenchmarkOverloadShedding(b *testing.B) {
	s := figureServer(b, Config{
		MaxConcurrent: 2,
		MaxQueue:      2,
		QueueWait:     time.Millisecond,
	})
	var served, shed atomic.Int64
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
				"/api/v1/search?q=xquery+optimization&filter=size<=3", nil))
			switch rec.Code {
			case http.StatusOK:
				served.Add(1)
			case http.StatusServiceUnavailable:
				shed.Add(1)
			default:
				b.Fatalf("unexpected status %d", rec.Code)
			}
		}
	})
	b.StopTimer()
	total := served.Load() + shed.Load()
	if total > 0 {
		b.ReportMetric(float64(shed.Load())/float64(total), "shed-fraction")
	}
	b.ReportMetric(float64(served.Load()), "served")
}
