# Developer entrypoints. CI runs the same commands (see
# .github/workflows/ci.yml); `make lint` is the local equivalent of the
# lint job.

GO      ?= go
RDFLINT := $(CURDIR)/bin/rdflint

.PHONY: all build test race lint rdflint fmt vet staticcheck govulncheck fuzz bench-module clean

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# Full local gate: formatting, stock vet, the repo's own vettool, and
# the escape-analysis gate. staticcheck and govulncheck need network
# access to fetch their module / vulnerability DB, so they are invoked
# only when the tools resolve — offline runs still get everything that
# matters for the repo invariants.
lint: fmt vet rdflint
	$(GO) vet -vettool=$(RDFLINT) ./...
	$(GO) test -run 'TestEscapeGate' ./internal/analysis
	$(MAKE) staticcheck govulncheck

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

rdflint:
	$(GO) build -o $(RDFLINT) ./cmd/rdflint

staticcheck:
	@if $(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1 -version >/dev/null 2>&1; then \
		$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1 ./...; \
	else \
		echo "staticcheck unavailable (offline?); skipping — CI runs it"; \
	fi

govulncheck:
	@if $(GO) run golang.org/x/vuln/cmd/govulncheck@latest -version >/dev/null 2>&1; then \
		$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...; \
	else \
		echo "govulncheck unavailable (offline?); skipping — CI runs it"; \
	fi

# The CI fuzz job's ten targets, one -fuzz run each (the fuzz engine
# takes one target per invocation). CI gives each 30s; the local
# default is shorter: make fuzz FUZZTIME=30s for the CI budget.
FUZZTIME ?= 10s
FUZZ_TARGETS := \
	./internal/ef:FuzzPEF \
	./internal/dict:FuzzExtractorOracle \
	./internal/dict:FuzzDictRoundTrip \
	./internal/dict:FuzzOverlayRoundTrip \
	./internal/dict:FuzzDictCheck \
	./internal/dict:FuzzNumericLexical \
	./internal/store:FuzzStoreRead \
	./internal/rdf:FuzzParseLine \
	./internal/server:FuzzSPARQLUpdate \
	./internal/server:FuzzSPARQLQuery

fuzz:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; name=$${t##*:}; \
		echo "$$name ($$pkg, $(FUZZTIME))"; \
		$(GO) test -run xxx -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) $$pkg; \
	done

# The socket benchmark is its own module, which `go test ./...` at the
# root never compiles; the CI benchmark-module job runs the same.
bench-module:
	$(GO) -C benchmark vet ./... && $(GO) -C benchmark test ./... && $(GO) -C benchmark build -o /dev/null ./ladder

clean:
	rm -rf bin
