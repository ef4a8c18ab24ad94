#include "pt/walker.h"

namespace hpmp
{

namespace
{

/** Cache-less port that records each reference instead of charging. */
struct RecordingPort : StagePort
{
    SmallVec<PtRef, 8> &refs;

    Fault
    charge(Addr pa, AccessType type, unsigned level)
    {
        refs.push_back({pa, type == AccessType::Store, level});
        return Fault::None;
    }
};

} // namespace

WalkResult
walkPageTable(PhysMem &mem, Addr root_pa, Addr va, AccessType type,
              PrivMode priv, const WalkConfig &config)
{
    WalkResult result;
    RecordingPort port{{}, result.refs};
    static_cast<StageWalk &>(result) =
        walkStage(mem, port, root_pa, va, type, priv, config);
    return result;
}

} // namespace hpmp
