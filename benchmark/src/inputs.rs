//! Everything `--seed` decides: the order trajectories arrive in, which
//! of them are queried, and every request line. The same seed gives the
//! same bytes; the system under test sees only these generated inputs.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::sut::{self, Anchor, Corpus, Dataset, UncertainTrajectory};
use crate::sys::Sha256;

/// Independent streams from one `--seed`, so adding a draw to one kind
/// of input never shifts another.
pub fn rng(seed: u64, stream: &str) -> StdRng {
    let mut h = seed ^ 0xcbf2_9ce4_8422_2325;
    for b in stream.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    StdRng::seed_from_u64(h)
}

/// Fisher–Yates: the seeded arrival order of the corpus.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// The corpus in its seeded arrival order, cut into batches of
/// `batch_size` (the last may be short). Consumes the trajectories.
pub fn arrival_batches(corpus: &mut Corpus, seed: u64, batch_size: usize) -> Vec<Dataset> {
    let mut trajs = std::mem::take(&mut corpus.trajs);
    shuffle(&mut trajs, &mut rng(seed, "arrival"));
    into_batches(trajs, corpus.interval, batch_size)
}

pub fn into_batches(
    trajs: Vec<UncertainTrajectory>,
    interval: i64,
    batch_size: usize,
) -> Vec<Dataset> {
    let mut batches = Vec::with_capacity(trajs.len().div_ceil(batch_size));
    let mut it = trajs.into_iter().peekable();
    while it.peek().is_some() {
        batches.push(sut::batch(interval, it.by_ref().take(batch_size).collect()));
    }
    batches
}

pub fn trajectories<'a>(
    batches: impl IntoIterator<Item = &'a Dataset>,
) -> impl Iterator<Item = &'a UncertainTrajectory> {
    batches.into_iter().flat_map(|b| b.trajectories.iter())
}

const POINT_ALPHAS: [f64; 3] = [0.1, 0.25, 0.5];
const RANGE_ALPHAS: [f64; 3] = [0.1, 0.3, 0.6];
/// Page limit of every `range` request.
pub const RANGE_LIMIT: usize = 256;

fn where_line(a: &Anchor, rng: &mut StdRng) -> String {
    let t = rng.gen_range(a.t_first..=a.t_last);
    sut::where_line(a.id, t, POINT_ALPHAS[rng.gen_range(0..3)])
}

fn when_line(a: &Anchor, rng: &mut StdRng) -> String {
    let edge = a.edges[rng.gen_range(0..a.edges.len())];
    // Two decimals keep request lines near the ~80 B of a real client.
    let rd = f64::from(rng.gen_range(10..90u32)) / 100.0;
    sut::when_line(a.id, edge, rd, POINT_ALPHAS[rng.gen_range(0..3)])
}

fn range_line(extent: [f64; 4], a: &Anchor, rng: &mut StdRng) -> String {
    // A rectangle 5–20 % of the extent per side, at a time when the
    // anchor trajectory is on the road.
    let frac = rng.gen_range(0.05..0.2);
    let (w, h) = (
        (extent[2] - extent[0]) * frac,
        (extent[3] - extent[1]) * frac,
    );
    let x = rng.gen_range(extent[0]..extent[2] - w);
    let y = rng.gen_range(extent[1]..extent[3] - h);
    let tq = rng.gen_range(a.t_first..=a.t_last);
    let round = |v: f64| (v * 10.0).round() / 10.0;
    sut::range_line(
        [round(x), round(y), round(x + w), round(y + h)],
        tq,
        RANGE_ALPHAS[rng.gen_range(0..3)],
        RANGE_LIMIT,
    )
}

/// `n_lines` distinct point requests (half `where`, half `when`) over
/// `n_trajs` distinct trajectories sampled from `pool`.
pub fn point_lines(
    pool: &[&UncertainTrajectory],
    n_trajs: usize,
    n_lines: usize,
    rng: &mut StdRng,
) -> Vec<String> {
    assert!(pool.len() >= n_trajs && n_trajs > 0);
    let mut picks: Vec<u32> = (0..pool.len() as u32).collect();
    shuffle(&mut picks, rng);
    let anchors: Vec<Anchor> = picks[..n_trajs]
        .iter()
        .map(|&i| sut::anchor(pool[i as usize]))
        .collect();
    distinct_lines(
        n_lines,
        |i, rng| {
            let a = &anchors[(i / 2) % anchors.len()];
            if i % 2 == 0 {
                where_line(a, rng)
            } else {
                when_line(a, rng)
            }
        },
        rng,
    )
}

/// `n_lines` distinct requests: 70 % `range`, 15 % `where`, 15 % `when`
/// on uniformly random trajectories, in shuffled order.
pub fn range_mix_lines(
    extent: [f64; 4],
    pool: &[&UncertainTrajectory],
    n_lines: usize,
    rng: &mut StdRng,
) -> Vec<String> {
    let mut lines = distinct_lines(
        n_lines,
        |i, rng| {
            let a = sut::anchor(pool[rng.gen_range(0..pool.len())]);
            match (i * 20 / n_lines.max(1)) as u32 {
                0..=13 => range_line(extent, &a, rng),
                14..=16 => where_line(&a, rng),
                _ => when_line(&a, rng),
            }
        },
        rng,
    );
    shuffle(&mut lines, rng);
    lines
}

/// `n_lines` distinct `range` requests.
pub fn range_lines(
    extent: [f64; 4],
    pool: &[&UncertainTrajectory],
    n_lines: usize,
    rng: &mut StdRng,
) -> Vec<String> {
    distinct_lines(
        n_lines,
        |_, rng| {
            range_line(
                extent,
                &sut::anchor(pool[rng.gen_range(0..pool.len())]),
                rng,
            )
        },
        rng,
    )
}

fn distinct_lines(
    n: usize,
    mut make: impl FnMut(usize, &mut StdRng) -> String,
    rng: &mut StdRng,
) -> Vec<String> {
    let mut seen = HashSet::with_capacity(n);
    let mut lines = Vec::with_capacity(n);
    for i in 0..n {
        let line = loop {
            let candidate = make(i, rng);
            if seen.insert(candidate.clone()) {
                break candidate;
            }
        };
        lines.push(line);
    }
    lines
}

/// `count` uniform draws from `0..n_items`: the fixed request sequence
/// every pass replays.
pub fn draw(n_items: usize, count: usize, rng: &mut StdRng) -> Vec<u32> {
    (0..count)
        .map(|_| rng.gen_range(0..n_items as u32))
        .collect()
}

/// Fingerprint of a run's inputs: trajectory ids in arrival order (the
/// corpus is fixed, so ids determine content) and every request line.
pub fn sha<'a>(batches: impl IntoIterator<Item = &'a Dataset>, line_sets: &[&[String]]) -> String {
    let mut h = Sha256::default();
    for tu in trajectories(batches) {
        h.update(&tu.id.to_le_bytes());
    }
    for set in line_sets {
        for line in *set {
            h.update(line.as_bytes());
            h.update(b"\n");
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(seed: u64) -> String {
        let mut corpus = sut::corpus(300);
        let extent = sut::extent(&corpus.net);
        let batches = arrival_batches(&mut corpus, seed, 64);
        assert_eq!(batches.len(), 5);
        assert_eq!(batches[4].trajectories.len(), 300 - 4 * 64);
        let pool: Vec<&UncertainTrajectory> = trajectories(&batches).collect();
        let points = point_lines(&pool, 32, 128, &mut rng(seed, "points"));
        let mix = range_mix_lines(extent, &pool, 100, &mut rng(seed, "mix"));
        assert_eq!(points.len(), 128);
        assert_eq!(points.iter().collect::<HashSet<_>>().len(), 128);
        let ranges = mix.iter().filter(|l| l.contains("\"range\"")).count();
        assert_eq!(ranges, 70);
        sha(&batches, &[&points, &mix])
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        assert_eq!(inputs(7), inputs(7));
        assert_ne!(inputs(7), inputs(8));
    }

    #[test]
    fn every_seed_keeps_the_same_trajectory_population() {
        let ids = |seed: u64| {
            let mut corpus = sut::corpus(200);
            let batches = arrival_batches(&mut corpus, seed, 50);
            let mut ids: Vec<u64> = trajectories(&batches).map(|t| t.id).collect();
            ids.sort_unstable();
            ids
        };
        assert_eq!(ids(1), ids(2));
    }

    #[test]
    fn generated_lines_parse_as_requests() {
        let mut corpus = sut::corpus(100);
        let extent = sut::extent(&corpus.net);
        let batches = arrival_batches(&mut corpus, 3, 100);
        let pool: Vec<&UncertainTrajectory> = trajectories(&batches).collect();
        for line in range_mix_lines(extent, &pool, 40, &mut rng(3, "mix")) {
            sut::parse_request(&line);
        }
        let ingest = sut::ingest_line(&batches[0].trajectories[..3]);
        assert_eq!(sut::parsed_ingest_len(&sut::parse_request(&ingest)), 3);
    }

    #[test]
    fn draws_stay_in_range_and_repeat_per_seed() {
        let a = draw(10, 1000, &mut rng(5, "order"));
        assert!(a.iter().all(|&i| i < 10));
        assert_eq!(a, draw(10, 1000, &mut rng(5, "order")));
        assert_ne!(a, draw(10, 1000, &mut rng(6, "order")));
    }
}
