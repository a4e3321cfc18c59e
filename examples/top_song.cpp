// "Most popular song" (the paper's Section I scenario, extreme aggregate).
//
// Each media player tracks how many times its owner played their favourite
// song this week. Devices at a party want to know the current crowd's
// number-one song — the *maximum* play count and which song attains it —
// without any coordinator. The dynamic-extreme protocol (agg/extremes.h)
// applies the paper's age-and-cutoff recipe to extremes: when the device
// carrying the top song leaves the party, its candidate expires everywhere
// within the cutoff and the next-best *present* song takes over. A static
// gossip maximum (cutoff 0) would announce the departed song forever.
//
// Mobility comes from a synthetic Haggle-style contact trace, played in
// one loop of 30-second gossip rounds.

#include <cstdio>
#include <string>
#include <vector>

#include "agg/extremes.h"
#include "common/rng.h"
#include "env/haggle_gen.h"
#include "env/trace_env.h"
#include "sim/population.h"

int main() {
  using namespace dynagg;

  // A party of 41 attendees over one evening: gatherings all night long.
  HaggleGenParams mobility = HaggleDataset3();
  mobility.duration_hours = 8.0;
  mobility.day_start_hour = 0;  // the party never sleeps
  mobility.day_end_hour = 24;
  mobility.meetings_per_hour_day = 20.0;
  const ContactTrace trace = GenerateHaggleTrace(mobility);
  const int n = trace.num_devices();

  // Each device i champions song i with a random weekly play count.
  const std::vector<std::string> songs = {
      "Narwhal Nights", "Gossip Protocol", "Push the Sum", "Sketchy Count",
      "Lambda Love",    "Epoch Reset",     "Mass Transit",  "Decay With Me"};
  Rng rng(99);
  std::vector<double> plays(n);
  std::vector<uint64_t> keys(n);
  for (int i = 0; i < n; ++i) {
    plays[i] = static_cast<double>(rng.UniformInt(200));
    keys[i] = i;
  }
  const HostId superfan = 17;
  plays[superfan] = 500.0;  // an obvious number one

  DynamicExtremeSwarm swarm(plays, keys, ExtremeParams{.cutoff = 20});
  TraceEnvironment env(trace);
  Population pop(n);
  const SimTime period = FromSeconds(30);
  for (SimTime t = period; t <= trace.end_time(); t += period) {
    env.AdvanceTo(t);
    // The superfan leaves the party after three hours, before that
    // instant's gossip round.
    if (t == FromHours(3.0)) {
      pop.Kill(superfan);
      std::printf("-- the superfan (500 plays) left the party --\n");
    }
    swarm.RunRound(env, pop, rng);

    if (t % FromMinutes(30) != 0) continue;  // report every half hour
    const HostId observer = 0;
    const uint64_t key = swarm.BestKey(observer);
    std::printf("%4.1f h  device 0 hears: #1 is \"%s\" (%g plays)%s\n",
                ToHours(t), songs[key % songs.size()].c_str(),
                swarm.Estimate(observer),
                pop.IsAlive(superfan) ? "" : "  [superfan gone]");
  }
  std::printf(
      "\nAfter the superfan departs, their song expires from every\n"
      "device within the cutoff and the best *present* song takes over.\n");
  return 0;
}
