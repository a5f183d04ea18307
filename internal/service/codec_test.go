package service

import (
	"context"
	"testing"
)

// TestServiceLossyCheckpointCodec runs faulted jobs across solvers on
// a service configured for lossy checkpointing: every rollback restores
// quantized state, and every job must still finish verified — the serving
// layer's no-SDC contract is codec-independent.
func TestServiceLossyCheckpointCodec(t *testing.T) {
	s := New(Config{
		Workers:            2,
		CheckpointCodec:    "lossy",
		CheckpointRelBound: 1e-6,
	})
	defer s.Close()

	reqs := []Request{
		{Matrix: laplaceSpec(), Solver: "pcg",
			Faults: []FaultSpec{{Iteration: 6, Index: -1}}},
		{Matrix: laplaceSpec(), Solver: "bicgstab",
			Faults: []FaultSpec{{Iteration: 6, Index: -1}}},
	}
	for _, req := range reqs {
		resp, err := s.Submit(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", req.Solver, err)
		}
		if !resp.Converged {
			t.Fatalf("%s: did not converge under lossy checkpointing", req.Solver)
		}
		if resp.VerifiedResidual > sdcTolFactor*1e-8 {
			t.Fatalf("%s: verified residual %.3e — silent corruption after lossy restore",
				req.Solver, resp.VerifiedResidual)
		}
		if resp.Rollbacks == 0 {
			t.Fatalf("%s: fault did not force a rollback, lossy path unexercised", req.Solver)
		}
	}
}

// TestServiceUnknownCodecDegradesToFull pins the config-typo behavior: an
// unknown codec name must not break the service; it serves with full
// copies.
func TestServiceUnknownCodecDegradesToFull(t *testing.T) {
	s := New(Config{Workers: 1, CheckpointCodec: "zstd"})
	defer s.Close()
	resp, err := s.Submit(context.Background(), Request{Matrix: laplaceSpec(), Solver: "pcg"})
	if err != nil {
		t.Fatalf("unknown codec name broke the service: %v", err)
	}
	if !resp.Converged {
		t.Fatal("did not converge")
	}
}
