package core

import (
	"testing"

	"gveleiden/internal/parallel"
)

// TestJoinLiveRefusesEmptiedCommunity pins the refinement race guard.
// An isolated founder that claims itself away leaves its sub-community
// with Σ' = 0; a vertex that chose that sub-community through the
// founder must not land there, or two such vertices would form a
// disconnected sub-community. A live sub-community takes the join.
func TestJoinLiveRefusesEmptiedCommunity(t *testing.T) {
	ws := &workspace{sigma: parallel.NewFloat64s(2)}
	ws.sigma.Set(0, 3) // founder of sub-community 0, degree 3
	ws.sigma.Set(1, 2) // founder of sub-community 1, degree 2

	// Founder 0 leaves: its CAS claim empties the sub-community.
	if !ws.sigma.CAS(0, 3, 0) {
		t.Fatal("founder claim failed")
	}
	if ws.joinLive(0, 5) {
		t.Fatal("joinLive accepted a join into an emptied sub-community")
	}
	if got := ws.sigma.Get(0); got != 0 {
		t.Fatalf("refused join changed Σ'[0] to %g", got)
	}
	if !ws.joinLive(1, 5) {
		t.Fatal("joinLive refused a live sub-community")
	}
	if got := ws.sigma.Get(1); got != 7 {
		t.Fatalf("Σ'[1] = %g after join, want 7", got)
	}
	// Once joined, the founder is no longer isolated and cannot leave.
	if ws.sigma.CAS(1, 2, 0) {
		t.Fatal("founder left a sub-community that another vertex joined")
	}
}
