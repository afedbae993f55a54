"""Closed-form average and peak age of single-server queues, in time units of
the rates (seconds for rates per second).

- D/D/1: Delta = 1/mu + 1/(2 lambda) for lambda <= mu; with mu = 1 this is
  1 + 1/(2 lambda). Every update waits only for its own service, so the age
  saws between 1/mu and 1/mu + 1/lambda.
- M/M/1 FCFS average age: Kaul, Yates & Gruteser, "Real-time status: How
  often should one update?", INFOCOM 2012.
- M/M/1 peak age and M/M/1/1 average age: Costa, Codreanu & Ephremides,
  "On the age of information in status update systems with packet
  management", IEEE Trans. Inf. Theory 62(4), 2016. M/M/1/1 is
  ``SimConfig(buffer_capacity=0)``: an arrival finding the server busy is
  dropped.
"""

from __future__ import annotations


def _check_rates(arrival_rate: float, service_rate: float) -> None:
    if not (arrival_rate > 0 and service_rate > 0):
        raise ValueError("rates must be positive")


def _stable_load(arrival_rate: float, service_rate: float) -> float:
    _check_rates(arrival_rate, service_rate)
    if arrival_rate >= service_rate:
        raise ValueError("an unbounded queue needs load lambda/mu < 1")
    return arrival_rate / service_rate


def dd1_average_age(arrival_rate: float, service_rate: float = 1.0) -> float:
    """D/D/1 average age 1/mu + 1/(2 lambda), for lambda <= mu."""
    _check_rates(arrival_rate, service_rate)
    if arrival_rate > service_rate:
        raise ValueError("D/D/1 needs lambda <= mu")
    return 1.0 / service_rate + 1.0 / (2.0 * arrival_rate)


def mm1_average_age(arrival_rate: float, service_rate: float) -> float:
    """M/M/1 FCFS average age (1/mu)(1 + 1/rho + rho^2/(1 - rho))."""
    rho = _stable_load(arrival_rate, service_rate)
    return (1.0 + 1.0 / rho + rho**2 / (1.0 - rho)) / service_rate


def mm1_peak_age(arrival_rate: float, service_rate: float) -> float:
    """M/M/1 FCFS average peak age 1/lambda + 1/(mu - lambda): the mean
    interarrival time plus the mean system time."""
    _stable_load(arrival_rate, service_rate)
    return 1.0 / arrival_rate + 1.0 / (service_rate - arrival_rate)


def mm11_average_age(arrival_rate: float, service_rate: float) -> float:
    """M/M/1/1 (no waiting room) average age 1/lambda + 2/mu - 1/(lambda + mu),
    finite at every load."""
    _check_rates(arrival_rate, service_rate)
    return 1.0 / arrival_rate + 2.0 / service_rate - 1.0 / (arrival_rate + service_rate)
