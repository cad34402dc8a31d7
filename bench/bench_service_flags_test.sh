#!/bin/sh
# Every unknown flag, missing value or malformed value must make
# bench_service print its usage and exit 2 before it starts a server.
# Usage: bench_service_flags_test.sh path/to/bench_service
bench="$1"
status=0
check() {
  err=$("$bench" "$@" 2>&1 > /dev/null)
  code=$?
  if [ "$code" -ne 2 ] || [ "${err#usage: bench_service}" = "$err" ]; then
    echo "FAIL (exit $code): bench_service $*"
    status=1
  fi
}
check --clients -1
check --clients abc
check --clients 0
check --clients 4x
check --clients +4
check --clients 99999999999999999999999
check --target-qps 0
check --target-qps -300
check --target-qps nan
check --target-qps inf
check --duration-s 0
check --duration-s -2
check --duration-s 1e999
check --target-qps 10 --duration-s 1 --clients 16
check --target-qps 1e9 --duration-s 1
check --clients
check --open-loop
check --open-clients 16
check --requests 2
exit $status
