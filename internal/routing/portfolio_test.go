package routing

import (
	"strings"
	"testing"

	"ubac/internal/topology"
)

func TestPortfolioName(t *testing.T) {
	if (Portfolio{}).Name() != "portfolio" {
		t.Error("name wrong")
	}
}

// The portfolio must succeed at the Theorem 4 lower bound on NSFNet,
// where the pure lookahead heuristic fails but the SP-guided member
// succeeds — the motivating case.
func TestPortfolioCoversNSFNetLowerBound(t *testing.T) {
	net := topology.NSFNet(topology.DefaultCapacity)
	m := model(t, net)
	const lb = 0.4545
	_, lookRep, err := (Heuristic{}).Select(m, voiceReq(lb))
	if err != nil {
		t.Fatal(err)
	}
	set, rep, err := (Portfolio{}).Select(m, voiceReq(lb))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe {
		t.Fatalf("portfolio unsafe at the NSFNet lower bound: %+v", rep)
	}
	if set.Len() != 182 {
		t.Errorf("routed %d pairs, want 182", set.Len())
	}
	if lookRep.Safe {
		t.Log("note: lookahead now succeeds alone; portfolio fallback untested here")
	}
	if !strings.HasPrefix(rep.Selector, "portfolio/") {
		t.Errorf("selector label = %s", rep.Selector)
	}
}

// On MCI the portfolio must do at least as well as its best member.
func TestPortfolioAtLeastBestMember(t *testing.T) {
	net := topology.MCI()
	m := model(t, net)
	for _, alpha := range []float64{0.36, 0.43, 0.46} {
		_, look, err := (Heuristic{}).Select(m, voiceReq(alpha))
		if err != nil {
			t.Fatal(err)
		}
		_, cheap, err := (Heuristic{Mode: Cheap}).Select(m, voiceReq(alpha))
		if err != nil {
			t.Fatal(err)
		}
		_, port, err := (Portfolio{}).Select(m, voiceReq(alpha))
		if err != nil {
			t.Fatal(err)
		}
		if (look.Safe || cheap.Safe) && !port.Safe {
			t.Errorf("alpha=%.2f: a member is safe but the portfolio is not", alpha)
		}
	}
}

func TestPortfolioFallbackReportsProgress(t *testing.T) {
	net := topology.MCI()
	m := model(t, net)
	_, rep, err := (Portfolio{}).Select(m, voiceReq(0.9))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Safe {
		t.Fatal("alpha=0.9 reported safe")
	}
	if rep.FailedPair == nil {
		t.Errorf("fallback report missing the failed pair: %+v", rep)
	}
	if !strings.HasPrefix(rep.Selector, "portfolio/") {
		t.Errorf("selector label = %s", rep.Selector)
	}
}

func TestPortfolioCustomMembers(t *testing.T) {
	net := topology.MCI()
	m := model(t, net)
	p := Portfolio{Members: []Selector{SP{}}}
	_, rep, err := p.Select(m, voiceReq(0.3))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe || rep.Selector != "portfolio/sp" {
		t.Errorf("custom members not used: %+v", rep)
	}
}

func TestPortfolioValidation(t *testing.T) {
	net := topology.MCI()
	m := model(t, net)
	if _, _, err := (Portfolio{}).Select(m, voiceReq(0)); err == nil {
		t.Error("bad alpha accepted")
	}
}
