// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` neither builds nor runs it. Its
// import path sits under repro/, which is what lets it import
// repro/internal/... for the -trace replay and the oracle.
module repro/benchmark

go 1.22

require repro v0.0.0

replace repro => ../
