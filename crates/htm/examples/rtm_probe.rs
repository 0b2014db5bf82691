//! Probes whether real RTM transactions commit on this machine.
fn main() {
    #[cfg(feature = "rtm")]
    {
        use rtle_htm::rtm;
        println!("cpuid RTM: {}", rtm::rtm_supported());
        let mut commits = 0;
        let mut aborts = 0;
        let cell = rtle_htm::atomic::RelaxedWord::new(0);
        for _ in 0..1000 {
            match rtm::try_txn(|| cell.fetch_add(1)) {
                Ok(_) => commits += 1,
                Err(_) => aborts += 1,
            }
        }
        println!("commits={commits} aborts={aborts} cell={}", cell.load());
    }
    #[cfg(not(feature = "rtm"))]
    println!("built without the rtm feature");
}
