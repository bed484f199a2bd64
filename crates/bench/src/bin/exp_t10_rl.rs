//! T10 — §3.3/§3.4: the reinforcement-learning extension ("experiment with
//! reinforcement learning providing the opportunity for more advanced
//! assignments").
//!
//! Shape target: REINFORCE on the simulator improves episode return over a
//! random-initialised policy, and the learned policy steers corrective
//! (left-of-line → steer right).

use autolearn::rl::{train_reinforce, Policy, RlConfig};
use autolearn_bench::{f, print_table};
use autolearn_nn::Tensor;
use autolearn_track::circle_track;

fn main() {
    println!("== T10: reinforcement learning (REINFORCE) ==\n");
    let track = circle_track(2.5, 0.8);
    let cfg = RlConfig {
        episodes: 40,
        episode_s: 15.0,
        seed: 5,
        ..Default::default()
    };
    let mut policy = Policy::new(5);
    let report = train_reinforce(&track, &cfg, &mut policy);

    // Learning curve, bucketed by 5 episodes.
    let rows: Vec<Vec<String>> = report
        .returns
        .chunks(5)
        .enumerate()
        .map(|(i, chunk)| {
            let mean = chunk.iter().sum::<f64>() / chunk.len() as f64;
            let crashes: usize = report.crashes_per_episode
                [i * 5..(i * 5 + chunk.len()).min(report.crashes_per_episode.len())]
                .iter()
                .sum();
            vec![
                format!("{}-{}", i * 5, i * 5 + chunk.len() - 1),
                f(mean, 2),
                crashes.to_string(),
            ]
        })
        .collect();
    print_table(&["episodes", "mean return", "crashes"], &rows);

    let first = report.mean_return_first(8);
    let last = report.mean_return_last(8);
    println!(
        "\nmean return: first 8 episodes {:.2} → last 8 episodes {:.2} ({})",
        first,
        last,
        if last > first {
            "IMPROVED"
        } else {
            "no improvement"
        }
    );

    let ml = policy.mean(&Tensor::from_vec(&[1, 4], vec![0.3, 0.0, 0.4, 0.3]));
    let mr = policy.mean(&Tensor::from_vec(&[1, 4], vec![-0.3, 0.0, 0.4, 0.3]));
    println!(
        "policy steering: left-of-line → {:.2}, right-of-line → {:.2} ({})",
        ml,
        mr,
        if ml < mr {
            "corrective"
        } else
        // steer right when left of line
        {
            "not yet corrective"
        }
    );
}
