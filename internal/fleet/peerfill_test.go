package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"idyll/internal/service"
)

// A warmup job whose checkpoint peer never answers ends cancelled at its own
// timeout: the checkpoint fill runs under the job's context, not under a
// fresh per-peer timeout (5 s) the job cannot cut short.
func TestCkptFillHonoursJobTimeout(t *testing.T) {
	silent := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer silent.Close()

	f := NewFiller("", []string{silent.URL})
	srv, err := service.NewServer(service.Config{Workers: 1, CkptFill: f.CkptFill})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()

	spec := service.JobSpec{
		Kind: "cell", App: "PR", Scheme: "idyll", TimeoutMS: 200,
		Options: json.RawMessage(`{"cus_per_gpu":2,"accesses_per_cu":40,"warmup_accesses_per_cu":20}`),
	}
	start := time.Now()
	st, err := service.NewClient(hs.URL).SubmitAndWait(context.Background(), spec, nil)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != service.StatusCancelled {
		t.Fatalf("status = %s (%s), want cancelled", st.Status, st.Error)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("job took %v to cancel; the checkpoint fill ignored its context", elapsed)
	}
}
