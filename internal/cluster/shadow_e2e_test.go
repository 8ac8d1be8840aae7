package cluster_test

// The cluster-routed leg of the shadow-precision acceptance criterion:
// the same shadow job submitted via two different fpspyd peers must run
// exactly one pass cluster-wide, and the ranked attribution table must
// be byte-identical wherever it is served from. The precision is part of
// the config and so of the content address, so routing and execution
// agree on ownership and a plain job over the same clone stays a
// distinct cache entry.

import (
	"errors"
	"fmt"
	"net/http"
	"testing"
	"time"

	fpspy "repro"
	"repro/internal/analysis"
	"repro/internal/server"
	"repro/internal/server/client"
)

func shadowResult(t testing.TB, c *client.Client, id string) ([]analysis.RootCauseSite, *server.Summary) {
	t.Helper()
	var sites []analysis.RootCauseSite
	sum, err := c.StreamResult(id, func(line server.ResultLine) error {
		if line.Type == "site" && line.Site != nil {
			sites = append(sites, *line.Site)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sites, sum
}

func TestClusterRoutedShadowJob(t *testing.T) {
	peers := newTestCluster(t, 3, nil)
	job := cjob(t, "shadow-routed", 4)
	plainCfg := fpspy.Config{Mode: fpspy.ModeIndividual}
	cfg := plainCfg
	cfg.ShadowPrec = 113

	// Submit via a peer that does NOT own the address so the job takes
	// the forwarding path.
	owner := ownerIndex(t, peers, job, cfg)
	via := (owner + 1) % len(peers)
	cl := fastClient(peers[via].url, "shadow-routed-a")
	resp, err := cl.Submit(job, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := cl.Watch(resp.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	} else if st.State != server.StateDone {
		t.Fatalf("job state %s (%s)", st.State, st.Error)
	}
	sites, sum := shadowResult(t, cl, resp.ID)
	if sum.ShadowPrec != 113 || len(sites) == 0 {
		t.Fatalf("routed shadow result: prec %d, %d sites", sum.ShadowPrec, len(sites))
	}
	if sites[0].Op != "divsd" || sites[0].LocalUlps <= 0 {
		t.Fatalf("rank-1 site %+v, want the inexact divsd", sites[0])
	}

	// The same shadow job via every other peer: each a settled cache hit
	// with the identical ranked table.
	for i, p := range peers {
		cl := fastClient(p.url, fmt.Sprintf("shadow-routed-%d", i))
		resp2, err := cl.Submit(job, cfg)
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		st, err := cl.Watch(resp2.ID, 5*time.Millisecond)
		if err != nil {
			t.Fatalf("peer %d: %v", i, err)
		}
		if st.State != server.StateDone {
			t.Fatalf("peer %d: state %s (%s)", i, st.State, st.Error)
		}
		sites2, sum2 := shadowResult(t, cl, resp2.ID)
		if len(sites2) != len(sites) {
			t.Fatalf("peer %d: %d sites, want %d", i, len(sites2), len(sites))
		}
		for j := range sites {
			if sites[j] != sites2[j] {
				t.Fatalf("peer %d: site %d differs:\nfirst: %+v\npeer:  %+v", i, j, sites[j], sites2[j])
			}
		}
		if sum2.ShadowLocalUlps != sum.ShadowLocalUlps || sum2.ShadowMaxUlps != sum.ShadowMaxUlps {
			t.Fatalf("peer %d: summary scalars differ: %+v vs %+v", i, sum2, sum)
		}
	}

	// The acceptance criterion: one pass total, cluster-wide.
	if n := totalPasses(peers); n != 1 {
		t.Fatalf("cluster executed %d shadow passes, want 1", n)
	}

	// A plain job over the same clone is a different content address: it
	// runs its own (single) pass instead of hitting the shadow entry.
	plain, err := fastClient(peers[0].url, "shadow-plain").Submit(job, plainCfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.CacheHit {
		t.Fatal("plain job hit the shadow job's cluster cache entry")
	}
}

// TestClusterRejectsBadShadowPrecision: a non-owner peer refuses an
// out-of-range shadow precision itself, with a 400, before routing; no
// pass runs anywhere.
func TestClusterRejectsBadShadowPrecision(t *testing.T) {
	peers := newTestCluster(t, 3, nil)
	job := cjob(t, "shadow-bad-routed", 1)
	for _, prec := range []uint64{1, 23, fpspy.MaxShadowPrec + 1, 65536} {
		cfg := fpspy.Config{Mode: fpspy.ModeIndividual, ShadowPrec: prec}
		via := (ownerIndex(t, peers, job, cfg) + 1) % len(peers)
		_, err := fastClient(peers[via].url, "shadow-bad").Submit(job, cfg)
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Errorf("prec %d via peer %d: err %v, want an APIError with status 400", prec, via, err)
		}
	}
	if n := totalPasses(peers); n != 0 {
		t.Fatalf("cluster executed %d passes for rejected submissions", n)
	}
}
