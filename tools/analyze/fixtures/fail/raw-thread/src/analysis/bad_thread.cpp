// Fixture: MUST FAIL — raw threads outside the pool and the heartbeat.
// Neither suppression below is honored: the analyze:allow carries no
// rationale, and the second comment uses the retired suppression grammar.
#include <thread>

namespace bnf {

void fire_and_forget() {
  // analyze:allow(raw-thread)
  std::thread worker([] {});
  worker.join();
}

void fire_again() {
  // lint:allow(raw-thread) leftover from the retired suppression grammar
  std::thread worker([] {});
  worker.join();
}

}  // namespace bnf
