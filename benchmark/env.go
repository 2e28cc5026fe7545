package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// envStamp records where and with what settings a run was made, so two
// results are only compared when they come from the same environment.
type envStamp struct {
	Nproc            int                `json:"nproc"`
	ServerGOMAXPROCS int                `json:"server_gomaxprocs"` // /stats "workers": the default -workers is GOMAXPROCS
	CPUModel         string             `json:"cpu_model"`
	GoVersion        string             `json:"go_version"`
	Commit           string             `json:"commit"`
	Workload         string             `json:"workload"`
	Seed             int64              `json:"seed"`
	Seconds          float64            `json:"seconds"`
	Triples          int                `json:"triples"`
	Layout           string             `json:"layout"`
	OpenRates        map[string]float64 `json:"open_rate_per_s"`
	WriteRate        float64            `json:"write_rate_per_s"`
	MergeThreshold   int                `json:"merge_threshold"`
	SetupStarts      int                `json:"setup_starts"`
}

func stampEnv(cfg config, srv *server) envStamp {
	e := envStamp{
		Nproc:          runtime.NumCPU(),
		CPUModel:       "unknown",
		GoVersion:      runtime.Version(),
		Commit:         "unknown",
		Workload:       cfg.workload,
		Seed:           cfg.seed,
		Seconds:        cfg.seconds,
		Triples:        datasetTriples,
		Layout:         "2Tp",
		OpenRates:      openRate,
		WriteRate:      writeRate,
		MergeThreshold: mergeThreshold,
		SetupStarts:    setupStarts,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// A benchmark checkout need not be a git repository.
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if body, err := httpGet(srv.base + "/stats"); err == nil {
		var st struct {
			Workers int `json:"workers"`
		}
		if json.Unmarshal(body, &st) == nil {
			e.ServerGOMAXPROCS = st.Workers
		}
	}
	return e
}
