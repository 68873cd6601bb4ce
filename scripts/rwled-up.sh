# Boot ./target/release/rwled on an ephemeral port and wait until it serves.
#
# Source it, do not execute it:   . scripts/rwled-up.sh [rwled flags...]
#
# rwled has to be a background job of the *calling* shell: the CI gates
# `wait "$server_pid"` for its exit status (nonzero on a drain mismatch)
# or `kill -9` it mid-load, and a shell can only wait for its own
# children. Flags pass through unchanged after `--port 0 --port-file
# rwled.port`. Sets `server_pid` and `port`, prints both, and fails the
# caller (return 1 under `set -e`) if no port is published within 10 s.
rm -f rwled.port
./target/release/rwled --port 0 --port-file rwled.port "$@" &
server_pid=$!
for _ in $(seq 1 100); do
  [ -s rwled.port ] && break
  sleep 0.1
done
[ -s rwled.port ] || { echo "server never published its port" >&2; return 1; }
port=$(cat rwled.port)
echo "rwled up: pid $server_pid, port $port"
