// Controller: the B2BObjectController of §5.
//
// The application wraps each state-accessing operation of its object in
//   controller.enter();
//   controller.overwrite();        // or examine() / update()
//   ... mutate the object ...
//   controller.leave();
// enter/leave may nest; coordination is initiated at the final leave() if
// overwrite() or update() was indicated anywhere in the scope ("rolling up"
// a series of changes into a single coordination event).
//
// Communication modes (§5):
//  * kSync          — leave()/connect()/disconnect() block (drive the
//                     runtime's Executor) until coordination completes and
//                     throw ValidationError if it was vetoed.
//  * kDeferredSync  — they return immediately; coord_commit() blocks.
//  * kAsync         — they return immediately; completion is signalled via
//                     the object's coord_callback and the RunResult's
//                     on_complete hook.
//
// Blocking goes through the abstract Executor (net/runtime.hpp): on the
// simulator that pumps the event queue; on the socket runtimes it just
// waits while transport threads make progress.
#pragma once

#include <cstdint>
#include <string>

#include "b2b/coordinator.hpp"
#include "net/runtime.hpp"

namespace b2b::core {

class Controller {
 public:
  enum class Mode { kSync, kDeferredSync, kAsync };

  Controller(Coordinator& coordinator, net::Executor& executor,
             ObjectId object, Mode mode = Mode::kSync);

  Mode mode() const { return mode_; }
  void set_mode(Mode mode) { mode_ = mode; }

  // --- state-access scoping (§5) --------------------------------------------

  /// Begin a state-access scope. May be nested.
  void enter();

  /// Indicate the access type for the current scope. overwrite/update are
  /// sticky for the whole outermost scope; update takes precedence over
  /// examine, overwrite over update.
  void examine();
  void overwrite();
  void update();

  /// End the scope. At the outermost leave(), if overwrite() or update()
  /// was indicated, state coordination is initiated (and, in sync mode,
  /// awaited). Throws b2b::Error if not inside a scope.
  void leave();

  // --- connection management --------------------------------------------------

  /// Join the group coordinating this object, contacting `via`.
  void connect(const PartyId& via);

  /// Voluntarily leave the group.
  void disconnect();

  /// Propose eviction of other members.
  void evict(std::vector<PartyId> subjects);

  // --- completion ----------------------------------------------------------------

  /// Deferred-sync: wait for the most recent coordination to complete.
  /// Returns its handle; throws ValidationError if it was vetoed.
  RunHandle coord_commit();

  /// Most recent coordination handle (may be pending in async mode).
  RunHandle last_handle() const { return last_handle_; }

 private:
  enum class Access : std::uint8_t { kNone, kExamine, kUpdate, kOverwrite };

  void initiate_coordination();
  void await(const RunHandle& handle, const std::string& what);

  Coordinator& coordinator_;
  net::Executor& executor_;
  ObjectId object_;
  Mode mode_;
  int depth_ = 0;
  Access access_ = Access::kNone;
  RunHandle last_handle_;
};

}  // namespace b2b::core
